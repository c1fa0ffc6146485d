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

/**
 * Candidate blocks widenFit refits side by side. A block's ternary
 * search is one long dependency chain per probe; stepping three blocks
 * together overlaps their chains.
 */
constexpr size_t kWidenBlocks = 3;

/**
 * The refit state of B 4-candidate blocks: vals[i][p][b] is block b's
 * prediction of part p on coordinate i, lvl[p][b] its level of part p,
 * and base[i][b] its bases of the part being refit. Blocks are the
 * innermost index, so the rows a call uses are contiguous and the
 * three blocks touch little more stack than one block's state did.
 */
template <size_t B>
struct WidenBlocks
{
    __m256d vals[kMaxFitCoords][kMaxWidenParts][B];
    __m256d lvl[kMaxWidenParts][B];
    __m256d base[kMaxFitCoords][B];
};

/** Part p's base on coordinate i for the block at candidate e. */
BOLT_AVX2 inline __m256d
widenBase(const WidenSpec& spec, size_t p, size_t i, size_t e)
{
    return p + 1 < spec.partCount
               ? _mm256_set1_pd(spec.fixedBase[p * spec.coordCount + i])
               : _mm256_load_pd(spec.candBase[i] + e);
}

template <size_t B>
BOLT_AVX2 inline __m256d
widenDeviationVec(const WidenSpec& spec, const WidenBlocks<B>& st, size_t b)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    __m256d dist = zero;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const WidenCoord& c = spec.coords[i];
        __m256d pred;
        if (c.core) {
            pred = spec.coreShared ? st.vals[i][0][b] : zero;
        } else {
            pred = zero;
            for (size_t p = 0; p < spec.partCount; ++p)
                pred = _mm256_add_pd(pred, st.vals[i][p][b]);
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

/** Refresh part p's predictions of every block at its level. */
template <size_t B>
BOLT_AVX2 inline void
widenRefresh(const WidenSpec& spec, WidenBlocks<B>& st, size_t p, size_t cand)
{
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    for (size_t i = 0; i < spec.coordCount; ++i)
        for (size_t b = 0; b < B; ++b)
            st.vals[i][p][b] = vpredict(
                widenBase(spec, p, i, cand + b * kKernelBlock),
                spec.coords[i].capacity, floor_, st.lvl[p][b]);
}

/**
 * The loop invariants of part p's refit, computed once instead of per
 * probe. st.base gets part p's bases. Each non-core coordinate's sum of
 * the parts before p goes into vals[i][p][b], which no probe reads as a
 * prediction: the refresh at the fitted level overwrites it. dist0[b]
 * gets block b's partial deviation of the leading `lead` coordinates,
 * core ones that part p cannot move. The sums are the operations the
 * reference performs on the same values in the same order, so a probe
 * that starts from them keeps every lane bit-identical.
 */
template <size_t B>
BOLT_AVX2 inline void
widenHoist(const WidenSpec& spec, WidenBlocks<B>& st, size_t p, size_t lead,
           size_t cand, __m256d (&dist0)[B])
{
    const __m256d zero = _mm256_setzero_pd();
    for (size_t b = 0; b < B; ++b)
        dist0[b] = zero;
    for (size_t i = 0; i < lead; ++i) {
        const WidenCoord& c = spec.coords[i];
        const __m256d t = _mm256_set1_pd(c.target);
        const __m256d w = _mm256_set1_pd(c.weight);
        for (size_t b = 0; b < B; ++b) {
            __m256d pred = spec.coreShared ? st.vals[i][0][b] : zero;
            dist0[b] = _mm256_add_pd(
                dist0[b], _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred))));
        }
    }
    for (size_t i = 0; i < spec.coordCount; ++i)
        for (size_t b = 0; b < B; ++b)
            st.base[i][b] = widenBase(spec, p, i, cand + b * kKernelBlock);
    for (size_t i = lead; i < spec.coordCount; ++i) {
        if (spec.coords[i].core)
            continue;
        for (size_t b = 0; b < B; ++b) {
            __m256d prefix = zero;
            for (size_t q = 0; q < p; ++q)
                prefix = _mm256_add_pd(prefix, st.vals[i][q][b]);
            st.vals[i][p][b] = prefix;
        }
    }
}

/**
 * Both probes of one ternary step on part p, for every block, in one
 * coordinate pass: d1[b] is block b's deviation with part p at level
 * m1[b], d2[b] at m2[b], the other parts at their cached values. Each
 * accumulator starts from its block's hoisted leading deviation and
 * runs the reference's refresh-then-deviate operation sequence over the
 * remaining coordinates; the 2 * B independent add chains overlap each
 * other's latency. The reference's probe values are overwritten by the
 * refresh at the fitted level before anything reads them, so the
 * probes store nothing.
 */
template <size_t B>
BOLT_AVX2 inline void
widenProbePairs(const WidenSpec& spec, const WidenBlocks<B>& st, size_t p,
                size_t lead, const __m256d (&dist0)[B],
                const __m256d (&m1)[B], const __m256d (&m2)[B],
                __m256d (&d1)[B], __m256d (&d2)[B])
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    __m256d dist1[B], dist2[B];
    for (size_t b = 0; b < B; ++b)
        dist1[b] = dist2[b] = dist0[b];
    for (size_t i = lead; i < spec.coordCount; ++i) {
        const WidenCoord& c = spec.coords[i];
        const __m256d t = _mm256_set1_pd(c.target);
        const __m256d w = _mm256_set1_pd(c.weight);
        for (size_t b = 0; b < B; ++b) {
            __m256d pred1, pred2;
            if (c.core) {
                if (!spec.coreShared) {
                    pred1 = pred2 = zero;
                } else if (p == 0) {
                    pred1 = vpredict(st.base[i][b], c.capacity, floor_, m1[b]);
                    pred2 = vpredict(st.base[i][b], c.capacity, floor_, m2[b]);
                } else {
                    pred1 = pred2 = st.vals[i][0][b];
                }
            } else {
                const __m256d prefix = st.vals[i][p][b];
                const __m256d base = st.base[i][b];
                pred1 = _mm256_add_pd(
                    prefix, vpredict(base, c.capacity, floor_, m1[b]));
                pred2 = _mm256_add_pd(
                    prefix, vpredict(base, c.capacity, floor_, m2[b]));
                for (size_t q = p + 1; q < spec.partCount; ++q) {
                    pred1 = _mm256_add_pd(pred1, st.vals[i][q][b]);
                    pred2 = _mm256_add_pd(pred2, st.vals[i][q][b]);
                }
                pred1 = _mm256_min_pd(pred1, hundred);
                pred2 = _mm256_min_pd(pred2, hundred);
            }
            dist1[b] = _mm256_add_pd(
                dist1[b], _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred1))));
            dist2[b] = _mm256_add_pd(
                dist2[b], _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred2))));
        }
    }
    if (spec.wsum > 0.0) {
        const __m256d wsum = _mm256_set1_pd(spec.wsum);
        for (size_t b = 0; b < B; ++b) {
            d1[b] = _mm256_div_pd(dist1[b], wsum);
            d2[b] = _mm256_div_pd(dist2[b], wsum);
        }
    } else {
        for (size_t b = 0; b < B; ++b)
            d1[b] = d2[b] = _mm256_set1_pd(1e9);
    }
}

/**
 * Refit the B candidate blocks starting at candidate `cand`, side by
 * side. `lead_core` is the number of leading core coordinates.
 */
template <size_t B>
BOLT_AVX2 inline void
widenFitBlocks(const WidenSpec& spec, size_t lead_core, size_t cand,
               double* dist, double* levels)
{
    const size_t P = spec.partCount;
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    WidenBlocks<B> st;
    for (size_t b = 0; b < B; ++b) {
        for (size_t p = 0; p + 1 < P; ++p)
            st.lvl[p][b] = _mm256_set1_pd(spec.fixedInitLevels[p]);
        st.lvl[P - 1][b] = _mm256_set1_pd(spec.candInitLevel);
    }
    for (size_t p = 0; p < P; ++p)
        widenRefresh(spec, st, p, cand);

    for (int round = 0; round < spec.rounds; ++round) {
        for (size_t p = 0; p < P; ++p) {
            // Core coordinates follow part 0 alone when a core is shared.
            const size_t lead = !spec.coreShared || p != 0 ? lead_core : 0;
            __m256d dist0[B], lo[B], hi[B];
            widenHoist(spec, st, p, lead, cand, dist0);
            for (size_t b = 0; b < B; ++b) {
                lo[b] = _mm256_set1_pd(spec.lo);
                hi[b] = _mm256_set1_pd(spec.hi);
            }
            for (int it = 0; it < spec.iters; ++it) {
                __m256d m1[B], m2[B], d1[B], d2[B];
                for (size_t b = 0; b < B; ++b) {
                    __m256d step =
                        _mm256_div_pd(_mm256_sub_pd(hi[b], lo[b]), third);
                    m1[b] = _mm256_add_pd(lo[b], step);
                    m2[b] = _mm256_sub_pd(hi[b], step);
                }
                widenProbePairs(spec, st, p, lead, dist0, m1, m2, d1, d2);
                for (size_t b = 0; b < B; ++b) {
                    __m256d take = _mm256_cmp_pd(d1[b], d2[b], _CMP_LT_OQ);
                    hi[b] = _mm256_blendv_pd(hi[b], m2[b], take);
                    lo[b] = _mm256_blendv_pd(m1[b], lo[b], take);
                }
            }
            for (size_t b = 0; b < B; ++b)
                st.lvl[p][b] =
                    _mm256_mul_pd(half, _mm256_add_pd(lo[b], hi[b]));
            widenRefresh(spec, st, p, cand);
        }
    }
    for (size_t b = 0; b < B; ++b) {
        const size_t e = cand + b * kKernelBlock;
        _mm256_store_pd(dist + e, widenDeviationVec(spec, st, b));
        alignas(32) double lane_levels[kKernelBlock];
        for (size_t p = 0; p < P; ++p) {
            _mm256_store_pd(lane_levels, st.lvl[p][b]);
            for (size_t l = 0; l < kKernelBlock; ++l)
                levels[(e + l) * P + p] = lane_levels[l];
        }
    }
}

} // namespace

BOLT_AVX2 void
widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
         double* levels)
{
    size_t lead_core = 0;
    while (lead_core < spec.coordCount && spec.coords[lead_core].core)
        ++lead_core;
    // kWidenBlocks blocks at a time, then the 2- or 1-block tail.
    static_assert(kWidenBlocks == 3);
    const size_t blocks = paddedCount(cand_count) / kKernelBlock;
    size_t b = 0;
    for (; b + kWidenBlocks <= blocks; b += kWidenBlocks)
        widenFitBlocks<kWidenBlocks>(spec, lead_core, b * kKernelBlock, dist,
                                     levels);
    if (blocks - b == 2)
        widenFitBlocks<2>(spec, lead_core, b * kKernelBlock, dist, levels);
    else if (blocks - b == 1)
        widenFitBlocks<1>(spec, lead_core, b * kKernelBlock, dist, levels);
}

} // namespace avx2_kernels
} // namespace linalg
} // namespace bolt

#endif // __x86_64__
