/**
 * AVX2 backend for the blocked recommender kernels.
 *
 * Bit-reproducibility rules (see kernels.h): entries/candidates are
 * independent output lanes, so a 256-bit vector holds four of them side
 * by side and every lane executes exactly the scalar reference's
 * operation sequence — same coordinate order, same division (not
 * reciprocal-multiply), same min/max selection. No reduction crosses
 * lanes and nothing is reassociated. The compiler cannot fuse a mul+add
 * pair into an FMA (which rounds once instead of twice and would
 * diverge from the scalar reference in the last bit): the target string
 * names no fma, and this file is built with -ffp-contract=off.
 *
 * Every function here carries target("avx2") instead of the whole file
 * being built with -mavx2. A file-wide -mavx2 could let AVX2 code into
 * out-of-line copies of inline and template functions that the linker
 * then shares with scalar callers; per-function targets confine the
 * ISA to this backend, which kernels.cc only dispatches to once the CPU
 * has reported AVX2. The body is x86-64 only.
 *
 * Equivalence notes for the selection intrinsics (all inputs here are
 * finite, and products of nonnegative values never produce -0.0):
 *  - _mm256_min_pd(a, b) / _mm256_max_pd(a, b) return b on equality,
 *    matching std::min/std::max's value exactly when a == b.
 *  - std::clamp(v, 0, 100) == min(max(v, 0), 100) for v >= +0.0.
 */

#include "kernels.h"

#if defined(__x86_64__)

#include <immintrin.h>

#include <limits>

/** Enables AVX2 (and nothing else: no fma) for one function. */
#define BOLT_AVX2 __attribute__((target("avx2")))

namespace bolt {
namespace linalg {
namespace avx2_kernels {

namespace {

BOLT_AVX2 inline __m256d
vabs(__m256d x)
{
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/** clamp(base * scale, 0, 100) per lane; v is never negative here. */
BOLT_AVX2 inline __m256d
vclamp01h(__m256d v)
{
    return _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()),
                         _mm256_set1_pd(100.0));
}

BOLT_AVX2 inline __m256d
vpredict(__m256d base, bool capacity, __m256d floor_, __m256d level)
{
    __m256d scale = capacity ? _mm256_max_pd(level, floor_) : level;
    return vclamp01h(_mm256_mul_pd(base, scale));
}

} // namespace

BOLT_AVX2 void
pearsonRow(const PearsonTable& t, const double* query, double* out)
{
    const size_t padded = t.centered.paddedRows();
    const size_t n = t.lanes;
    const __m256d zero = _mm256_setzero_pd();
    if (t.wsum <= 0.0) {
        for (size_t e = 0; e < padded; e += kKernelBlock)
            _mm256_store_pd(out + e, zero);
        return;
    }
    // Query-side statistics are lane-independent scalars; computed
    // exactly like the reference.
    double ma = 0.0;
    for (size_t i = 0; i < n; ++i)
        ma += t.weights[i] * query[i];
    ma /= t.wsum;
    double s[kMaxFitCoords];
    double va = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double da = query[i] - ma;
        s[i] = t.weights[i] * da;
        va += s[i] * da;
    }
    const __m256d va_v = _mm256_set1_pd(va);
    const __m256d va_bad = _mm256_cmp_pd(va_v, zero, _CMP_LE_OQ);
    for (size_t e = 0; e < padded; e += kKernelBlock) {
        __m256d cov = zero;
        for (size_t i = 0; i < n; ++i) {
            __m256d d = _mm256_load_pd(t.centered.col(i) + e);
            cov = _mm256_add_pd(cov, _mm256_mul_pd(_mm256_set1_pd(s[i]), d));
        }
        __m256d vb = _mm256_load_pd(t.variance.data() + e);
        __m256d den = _mm256_sqrt_pd(_mm256_mul_pd(va_v, vb));
        __m256d r = _mm256_div_pd(cov, den);
        __m256d bad =
            _mm256_or_pd(va_bad, _mm256_cmp_pd(vb, zero, _CMP_LE_OQ));
        _mm256_store_pd(out + e, _mm256_blendv_pd(r, zero, bad));
    }
}

namespace {

/** Vector deviation of one entry block at per-lane levels. */
BOLT_AVX2 inline __m256d
fitDeviationVec(const FitSpec& spec, size_t e, __m256d level,
                bool fit_phase)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    __m256d dist = zero;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const FitCoord& c = spec.coords[i];
        __m256d pred =
            c.mode == DevMode::Zero
                ? zero
                : vpredict(_mm256_load_pd(c.base + e), c.capacity,
                           floor_, level);
        __m256d t = _mm256_set1_pd(c.target);
        __m256d w = _mm256_set1_pd(c.weight);
        if (c.mode == DevMode::Upper) {
            if (fit_phase && spec.skipUpperInFit)
                continue;
            __m256d over = _mm256_max_pd(zero, _mm256_sub_pd(pred, t));
            __m256d under = _mm256_max_pd(zero, _mm256_sub_pd(t, pred));
            __m256d term = _mm256_add_pd(
                over, _mm256_mul_pd(_mm256_set1_pd(0.05), under));
            dist = _mm256_add_pd(dist, _mm256_mul_pd(w, term));
        } else {
            dist = _mm256_add_pd(
                dist, _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred))));
        }
    }
    double wsum = fit_phase ? spec.fitWsum : spec.scoreWsum;
    if (wsum > 0.0)
        return _mm256_div_pd(dist, _mm256_set1_pd(wsum));
    return _mm256_set1_pd(1e9);
}

} // namespace

BOLT_AVX2 void
fitLevelsAndScore(const FitSpec& spec, size_t entry_count, double* levels,
                  double* scores)
{
    const size_t padded = paddedCount(entry_count);
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    for (size_t e = 0; e < padded; e += kKernelBlock) {
        __m256d lo = _mm256_set1_pd(spec.lo);
        __m256d hi = _mm256_set1_pd(spec.hi);
        for (int it = 0; it < spec.iters; ++it) {
            __m256d step =
                _mm256_div_pd(_mm256_sub_pd(hi, lo), third);
            __m256d m1 = _mm256_add_pd(lo, step);
            __m256d m2 = _mm256_sub_pd(hi, step);
            __m256d d1 = fitDeviationVec(spec, e, m1, true);
            __m256d d2 = fitDeviationVec(spec, e, m2, true);
            __m256d take = _mm256_cmp_pd(d1, d2, _CMP_LT_OQ);
            hi = _mm256_blendv_pd(hi, m2, take);
            lo = _mm256_blendv_pd(m1, lo, take);
        }
        __m256d level =
            _mm256_mul_pd(half, _mm256_add_pd(lo, hi));
        _mm256_store_pd(levels + e, level);
        _mm256_store_pd(scores + e,
                        fitDeviationVec(spec, e, level, false));
    }
}

namespace {

/** Gap from target v to [lo_v, hi_v] per lane (0 inside). */
BOLT_AVX2 inline __m256d
vgap(__m256d v, __m256d lo_v, __m256d hi_v)
{
    __m256d below = _mm256_cmp_pd(v, lo_v, _CMP_LT_OQ);
    __m256d above = _mm256_cmp_pd(v, hi_v, _CMP_GT_OQ);
    return _mm256_blendv_pd(
        _mm256_blendv_pd(_mm256_setzero_pd(), _mm256_sub_pd(v, hi_v),
                         above),
        _mm256_sub_pd(lo_v, v), below);
}

} // namespace

BOLT_AVX2 void
pruneBounds(const PruneCoord* coords, size_t coord_count, size_t cells,
            size_t entry_count, double* bounds)
{
    const size_t padded = paddedCount(entry_count);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    for (size_t e = 0; e < padded; e += kKernelBlock) {
        // One accumulator per (base cell, candidate cell) pair, walked
        // coordinate-outer so each candidate edge is loaded once. Every
        // accumulator still sums its terms in coordinate order, like the
        // reference's pair-outer loop.
        __m256d lb[kMaxPruneCells * kMaxPruneCells];
        for (size_t k = 0; k < cells * cells; ++k)
            lb[k] = zero;
        for (size_t i = 0; i < coord_count; ++i) {
            const PruneCoord& c = coords[i];
            const __m256d v = _mm256_set1_pd(c.target);
            const __m256d w = _mm256_set1_pd(c.weight);
            if (!c.additive) {
                for (size_t a = 0; a < cells; ++a) {
                    __m256d term = _mm256_mul_pd(
                        w, vgap(v, _mm256_set1_pd(c.base[a]),
                                _mm256_set1_pd(c.base[a + 1])));
                    for (size_t b = 0; b < cells; ++b)
                        lb[a * cells + b] =
                            _mm256_add_pd(lb[a * cells + b], term);
                }
                continue;
            }
            __m256d cand[kMaxPruneCells + 1];
            for (size_t k = 0; k <= cells; ++k)
                cand[k] = _mm256_load_pd(c.cand[k] + e);
            for (size_t a = 0; a < cells; ++a) {
                const __m256d base_lo = _mm256_set1_pd(c.base[a]);
                const __m256d base_hi = _mm256_set1_pd(c.base[a + 1]);
                for (size_t b = 0; b < cells; ++b) {
                    __m256d lo_v = _mm256_min_pd(
                        _mm256_add_pd(base_lo, cand[b]), hundred);
                    __m256d hi_v = _mm256_min_pd(
                        _mm256_add_pd(base_hi, cand[b + 1]), hundred);
                    lb[a * cells + b] = _mm256_add_pd(
                        lb[a * cells + b],
                        _mm256_mul_pd(w, vgap(v, lo_v, hi_v)));
                }
            }
        }
        __m256d best = _mm256_set1_pd(
            std::numeric_limits<double>::infinity());
        for (size_t k = 0; k < cells * cells; ++k)
            best = _mm256_min_pd(lb[k], best);
        _mm256_store_pd(bounds + e, best);
    }
}

namespace {

struct WidenState
{
    __m256d base[kMaxFitCoords][kMaxWidenParts];
    __m256d vals[kMaxFitCoords][kMaxWidenParts];
    __m256d lvl[kMaxWidenParts];
};

BOLT_AVX2 inline __m256d
widenDeviationVec(const WidenSpec& spec, const WidenState& st)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    __m256d dist = zero;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const WidenCoord& c = spec.coords[i];
        __m256d pred;
        if (c.core) {
            pred = spec.coreShared ? st.vals[i][0] : zero;
        } else {
            pred = zero;
            for (size_t p = 0; p < spec.partCount; ++p)
                pred = _mm256_add_pd(pred, st.vals[i][p]);
            pred = _mm256_min_pd(pred, hundred);
        }
        __m256d t = _mm256_set1_pd(c.target);
        __m256d w = _mm256_set1_pd(c.weight);
        dist = _mm256_add_pd(
            dist, _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred))));
    }
    if (spec.wsum > 0.0)
        return _mm256_div_pd(dist, _mm256_set1_pd(spec.wsum));
    return _mm256_set1_pd(1e9);
}

BOLT_AVX2 inline void
widenRefresh(const WidenSpec& spec, WidenState& st, size_t p,
             __m256d level)
{
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    for (size_t i = 0; i < spec.coordCount; ++i)
        st.vals[i][p] = vpredict(st.base[i][p], spec.coords[i].capacity,
                                 floor_, level);
}

/**
 * Both probes of one ternary step on part p in one coordinate pass: d1
 * is the deviation with part p at level m1, d2 at m2, the other parts
 * at their cached values. Each accumulator runs the reference's
 * refresh-then-deviate operation sequence (the shared part prefix sum
 * is the same operations, done once); the two independent add chains
 * overlap each other's latency. st.vals is left untouched: the
 * reference's probe values are overwritten by the refresh at the
 * fitted level before anything reads them.
 */
BOLT_AVX2 inline void
widenProbePair(const WidenSpec& spec, const WidenState& st, size_t p,
               __m256d m1, __m256d m2, __m256d& d1, __m256d& d2)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    __m256d dist1 = zero, dist2 = zero;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const WidenCoord& c = spec.coords[i];
        __m256d pred1, pred2;
        if (c.core) {
            if (!spec.coreShared) {
                pred1 = pred2 = zero;
            } else if (p == 0) {
                pred1 = vpredict(st.base[i][0], c.capacity, floor_, m1);
                pred2 = vpredict(st.base[i][0], c.capacity, floor_, m2);
            } else {
                pred1 = pred2 = st.vals[i][0];
            }
        } else {
            __m256d prefix = zero;
            for (size_t q = 0; q < p; ++q)
                prefix = _mm256_add_pd(prefix, st.vals[i][q]);
            pred1 = _mm256_add_pd(
                prefix, vpredict(st.base[i][p], c.capacity, floor_, m1));
            pred2 = _mm256_add_pd(
                prefix, vpredict(st.base[i][p], c.capacity, floor_, m2));
            for (size_t q = p + 1; q < spec.partCount; ++q) {
                pred1 = _mm256_add_pd(pred1, st.vals[i][q]);
                pred2 = _mm256_add_pd(pred2, st.vals[i][q]);
            }
            pred1 = _mm256_min_pd(pred1, hundred);
            pred2 = _mm256_min_pd(pred2, hundred);
        }
        __m256d t = _mm256_set1_pd(c.target);
        __m256d w = _mm256_set1_pd(c.weight);
        dist1 = _mm256_add_pd(
            dist1, _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred1))));
        dist2 = _mm256_add_pd(
            dist2, _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred2))));
    }
    if (spec.wsum > 0.0) {
        const __m256d wsum = _mm256_set1_pd(spec.wsum);
        d1 = _mm256_div_pd(dist1, wsum);
        d2 = _mm256_div_pd(dist2, wsum);
    } else {
        d1 = d2 = _mm256_set1_pd(1e9);
    }
}

} // namespace

BOLT_AVX2 void
widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
         double* levels)
{
    const size_t P = spec.partCount;
    const size_t N = spec.coordCount;
    const size_t padded = paddedCount(cand_count);
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    WidenState st;
    for (size_t cand = 0; cand < padded; cand += kKernelBlock) {
        for (size_t i = 0; i < N; ++i) {
            for (size_t p = 0; p + 1 < P; ++p)
                st.base[i][p] =
                    _mm256_set1_pd(spec.fixedBase[p * N + i]);
            st.base[i][P - 1] =
                _mm256_load_pd(spec.candBase[i] + cand);
        }
        for (size_t p = 0; p + 1 < P; ++p)
            st.lvl[p] = _mm256_set1_pd(spec.fixedInitLevels[p]);
        st.lvl[P - 1] = _mm256_set1_pd(spec.candInitLevel);
        for (size_t p = 0; p < P; ++p)
            widenRefresh(spec, st, p, st.lvl[p]);

        for (int round = 0; round < spec.rounds; ++round) {
            for (size_t p = 0; p < P; ++p) {
                __m256d lo = _mm256_set1_pd(spec.lo);
                __m256d hi = _mm256_set1_pd(spec.hi);
                for (int it = 0; it < spec.iters; ++it) {
                    __m256d step =
                        _mm256_div_pd(_mm256_sub_pd(hi, lo), third);
                    __m256d m1 = _mm256_add_pd(lo, step);
                    __m256d m2 = _mm256_sub_pd(hi, step);
                    __m256d d1, d2;
                    widenProbePair(spec, st, p, m1, m2, d1, d2);
                    __m256d take = _mm256_cmp_pd(d1, d2, _CMP_LT_OQ);
                    hi = _mm256_blendv_pd(hi, m2, take);
                    lo = _mm256_blendv_pd(m1, lo, take);
                }
                st.lvl[p] =
                    _mm256_mul_pd(half, _mm256_add_pd(lo, hi));
                widenRefresh(spec, st, p, st.lvl[p]);
            }
        }
        _mm256_store_pd(dist + cand, widenDeviationVec(spec, st));
        alignas(32) double lane_levels[kKernelBlock];
        for (size_t p = 0; p < P; ++p) {
            _mm256_store_pd(lane_levels, st.lvl[p]);
            for (size_t l = 0; l < kKernelBlock; ++l)
                levels[(cand + l) * P + p] = lane_levels[l];
        }
    }
}

} // namespace avx2_kernels
} // namespace linalg
} // namespace bolt

#endif // __x86_64__
