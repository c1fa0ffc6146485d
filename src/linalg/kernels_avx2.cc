/**
 * AVX2 backend for the blocked recommender kernels: the width-generic
 * kernels of kernels_simd.inc on 256-bit registers of four doubles.
 *
 * Every function here carries target("avx2") instead of the whole file
 * being built with -mavx2. A file-wide -mavx2 could let AVX2 code into
 * out-of-line copies of inline and template functions that the linker
 * then shares with scalar callers; per-function targets confine the
 * ISA to this backend, which kernels.cc only dispatches to once the CPU
 * has reported AVX2. The target names no fma, and the file is built
 * with -ffp-contract=off (kernels_simd.inc says why). The body is
 * x86-64 only.
 */

#include "kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

/** Enables AVX2 (and nothing else: no fma) for one function. */
#define BOLT_SIMD __attribute__((target("avx2")))

namespace bolt {
namespace linalg {
namespace avx2_kernels {

namespace {

/** One 256-bit register of four doubles (kernels_simd.inc's V). */
struct V
{
    using Vec = __m256d;
    using Mask = __m256d;  ///< All bits set in the lanes that hold.
    using Index = __m128i; ///< Four 32-bit row indices.
    static constexpr size_t kLanes = 4;

    BOLT_SIMD static Vec set1(double v) { return _mm256_set1_pd(v); }
    BOLT_SIMD static Vec zero() { return _mm256_setzero_pd(); }
    BOLT_SIMD static Vec load(const double* p) { return _mm256_load_pd(p); }
    BOLT_SIMD static void store(double* p, Vec v) { _mm256_store_pd(p, v); }
    BOLT_SIMD static Vec add(Vec a, Vec b) { return _mm256_add_pd(a, b); }
    BOLT_SIMD static Vec sub(Vec a, Vec b) { return _mm256_sub_pd(a, b); }
    BOLT_SIMD static Vec mul(Vec a, Vec b) { return _mm256_mul_pd(a, b); }
    BOLT_SIMD static Vec div(Vec a, Vec b) { return _mm256_div_pd(a, b); }
    BOLT_SIMD static Vec min(Vec a, Vec b) { return _mm256_min_pd(a, b); }
    BOLT_SIMD static Vec max(Vec a, Vec b) { return _mm256_max_pd(a, b); }
    BOLT_SIMD static Vec sqrt(Vec a) { return _mm256_sqrt_pd(a); }
    BOLT_SIMD static Vec abs(Vec a)
    {
        return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    }
    BOLT_SIMD static Mask lt(Vec a, Vec b)
    {
        return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
    }
    BOLT_SIMD static Mask le(Vec a, Vec b)
    {
        return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
    }
    BOLT_SIMD static Mask either(Mask a, Mask b) { return _mm256_or_pd(a, b); }
    BOLT_SIMD static Vec blend(Vec a, Vec b, Mask m)
    {
        return _mm256_blendv_pd(a, b, m);
    }
    BOLT_SIMD static Index loadIndex(const uint32_t* p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    BOLT_SIMD static Vec gather(const double* base, Index idx)
    {
        const Vec all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all,
                                        8);
    }
};

} // namespace

#include "kernels_simd.inc"

} // namespace avx2_kernels
} // namespace linalg
} // namespace bolt

#endif // __x86_64__
