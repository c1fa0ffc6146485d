#include "parse.h"

#include <charconv>
#include <cmath>

namespace bolt {
namespace util {

namespace {

template <typename T>
bool
parseFull(std::string_view s, T* out)
{
    T v{};
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size())
        return false;
    *out = v;
    return true;
}

} // namespace

bool
parseInt(std::string_view s, long long* out)
{
    return parseFull(s, out);
}

bool
parseUInt(std::string_view s, uint64_t* out)
{
    return parseFull(s, out);
}

bool
parseDouble(std::string_view s, double* out)
{
    double v = 0.0;
    if (!parseFull(s, &v) || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;
    return std::string(buf, ptr);
}

} // namespace util
} // namespace bolt
