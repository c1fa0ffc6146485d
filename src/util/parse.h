#ifndef BOLT_UTIL_PARSE_H
#define BOLT_UTIL_PARSE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace bolt {
namespace util {

/**
 * Full-token number parsing: the one numeric parser behind every
 * command-line flag and scenario key. A parse accepts the entire token
 * or nothing — "10x", "1 2", " 5", "+5", "0x10" and "" all fail, unlike
 * the std::stol / strtod family — and writes *out only on success.
 */
bool parseInt(std::string_view s, long long* out);
bool parseUInt(std::string_view s, uint64_t* out);
/** Finite values only: "nan", "inf" and overflow ("1e999") fail. */
bool parseDouble(std::string_view s, double* out);

/**
 * Shortest decimal form of v that reads back to the same double ("2",
 * "0.25", "1e-07"): the one formatter behind scenario dumps and
 * numeric diagnostics, so what is printed parses back bit for bit.
 */
std::string fmtDouble(double v);

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_PARSE_H
