#ifndef BOLT_UTIL_DIGEST_H
#define BOLT_UTIL_DIGEST_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace bolt {
namespace util {

/**
 * Incremental FNV-1a digest over raw bytes. Doubles are folded
 * bit-for-bit (IEEE-754 representation), so any computation change
 * that is not bit-identical flips the digest — the primitive behind
 * the serving layer's golden gate (`ServeResult::digest`), matching
 * the hash the experiment digest and `perf_recommender` use.
 */
struct Fnv1a
{
    uint64_t h = 1469598103934665603ull;

    void bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void u8(uint8_t v) { bytes(&v, sizeof v); }
    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(std::string_view s) { bytes(s.data(), s.size()); }
};

/** A digest as 16 zero-padded lowercase hex digits, as goldens print it. */
inline std::string
hex64(uint64_t v)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[static_cast<size_t>(i)] = kDigits[v & 0xf];
    return out;
}

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_DIGEST_H
