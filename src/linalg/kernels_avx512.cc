/**
 * AVX-512 backend for the blocked recommender kernels: the
 * width-generic kernels of kernels_simd.inc on 512-bit registers of
 * eight doubles, with AVX-512F's 32 vector registers holding the
 * side-by-side blocks' state.
 *
 * As in kernels_avx2.cc, every function carries its own target
 * ("avx512f", which names no fma) instead of a file-wide -mavx512f, so
 * no AVX-512 code can reach a scalar caller through a shared inline
 * copy; kernels.cc dispatches here only once the CPU has reported
 * AVX-512F. The file is built with -ffp-contract=off. The body is
 * x86-64 only.
 */

#include "kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <limits>

/** Enables AVX-512F (and what it implies, AVX2; no fma) for one function. */
#define BOLT_SIMD __attribute__((target("avx512f")))

namespace bolt {
namespace linalg {
namespace avx512_kernels {

namespace {

/**
 * One 512-bit register of eight doubles (kernels_simd.inc's V). GCC
 * 12's unmasked _mm512_min_pd, _mm512_max_pd and _mm512_sqrt_pd merge
 * into _mm512_undefined_pd(), which -Wmaybe-uninitialized flags once
 * they are inlined; their zero-masking forms with every lane selected
 * compile to the same unmasked instructions and do not warn.
 */
struct V
{
    using Vec = __m512d;
    using Mask = __mmask8; ///< One bit per lane, set where it holds.
    using Index = __m256i; ///< Eight 32-bit row indices.
    static constexpr size_t kLanes = 8;
    static constexpr Mask kAll = 0xff;

    BOLT_SIMD static Vec set1(double v) { return _mm512_set1_pd(v); }
    BOLT_SIMD static Vec zero() { return _mm512_setzero_pd(); }
    BOLT_SIMD static Vec load(const double* p) { return _mm512_load_pd(p); }
    BOLT_SIMD static void store(double* p, Vec v) { _mm512_store_pd(p, v); }
    BOLT_SIMD static Vec add(Vec a, Vec b) { return _mm512_add_pd(a, b); }
    BOLT_SIMD static Vec sub(Vec a, Vec b) { return _mm512_sub_pd(a, b); }
    BOLT_SIMD static Vec mul(Vec a, Vec b) { return _mm512_mul_pd(a, b); }
    BOLT_SIMD static Vec div(Vec a, Vec b) { return _mm512_div_pd(a, b); }
    BOLT_SIMD static Vec min(Vec a, Vec b)
    {
        return _mm512_maskz_min_pd(kAll, a, b);
    }
    BOLT_SIMD static Vec max(Vec a, Vec b)
    {
        return _mm512_maskz_max_pd(kAll, a, b);
    }
    BOLT_SIMD static Vec sqrt(Vec a) { return _mm512_maskz_sqrt_pd(kAll, a); }
    BOLT_SIMD static Vec abs(Vec a) { return _mm512_abs_pd(a); }
    BOLT_SIMD static Mask lt(Vec a, Vec b)
    {
        return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
    }
    BOLT_SIMD static Mask le(Vec a, Vec b)
    {
        return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
    }
    BOLT_SIMD static Mask either(Mask a, Mask b)
    {
        return static_cast<Mask>(a | b);
    }
    BOLT_SIMD static Vec blend(Vec a, Vec b, Mask m)
    {
        return _mm512_mask_blend_pd(m, a, b);
    }
    BOLT_SIMD static Index loadIndex(const uint32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    BOLT_SIMD static Vec gather(const double* base, Index idx)
    {
        return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), kAll, idx, base,
                                        8);
    }
};

} // namespace

#include "kernels_simd.inc"

} // namespace avx512_kernels
} // namespace linalg
} // namespace bolt

#endif // __x86_64__
