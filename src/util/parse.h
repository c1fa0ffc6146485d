#ifndef BOLT_UTIL_PARSE_H
#define BOLT_UTIL_PARSE_H

#include <cstdint>
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

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_PARSE_H
