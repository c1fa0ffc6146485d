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

#include <cmath>
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

/**
 * The coordinates one phase of a fit reads, decided once per call: the
 * fit phase drops Upper coordinates when skipUpperInFit, as the
 * reference's `continue` does. A leading run of Zero coordinates adds
 * the same level-independent terms to every lane, so their sum, taken
 * in the reference's order from 0.0, becomes every accumulator's start.
 */
struct FitPhase
{
    const FitCoord* coords[kMaxFitCoords];
    size_t count = 0;
    double lead = 0.0;
    double wsum = 0.0;
};

FitPhase
fitPhase(const FitSpec& spec, bool fit_phase)
{
    FitPhase ph;
    ph.wsum = fit_phase ? spec.fitWsum : spec.scoreWsum;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const FitCoord& c = spec.coords[i];
        if (fit_phase && spec.skipUpperInFit && c.mode == DevMode::Upper)
            continue;
        if (ph.count == 0 && c.mode == DevMode::Zero)
            ph.lead += c.weight * std::abs(c.target - 0.0);
        else
            ph.coords[ph.count++] = &c;
    }
    return ph;
}

/**
 * The deviations of B entry blocks at K per-lane levels each, in one
 * coordinate pass: out[k][b] is block b (the block at e + b blocks) at
 * level lvl[k][b]. Each coordinate's mode and capacity are read once
 * per pass, not once per probe; each accumulator still adds its terms
 * in coordinate order, and the K * B add chains overlap.
 */
template <size_t K, size_t B>
BOLT_AVX2 inline void
fitDeviations(const FitPhase& ph, double capacity_floor, size_t e,
              const __m256d (&lvl)[K][B], __m256d (&out)[K][B])
{
    if (!(ph.wsum > 0.0)) {
        for (size_t k = 0; k < K; ++k)
            for (size_t b = 0; b < B; ++b)
                out[k][b] = _mm256_set1_pd(1e9);
        return;
    }
    const __m256d zero = _mm256_setzero_pd();
    const __m256d floor_ = _mm256_set1_pd(capacity_floor);
    __m256d floored[K][B], dist[K][B];
    for (size_t k = 0; k < K; ++k)
        for (size_t b = 0; b < B; ++b) {
            floored[k][b] = _mm256_max_pd(lvl[k][b], floor_);
            dist[k][b] = _mm256_set1_pd(ph.lead);
        }
    for (size_t n = 0; n < ph.count; ++n) {
        const FitCoord& c = *ph.coords[n];
        const __m256d t = _mm256_set1_pd(c.target);
        const __m256d w = _mm256_set1_pd(c.weight);
        if (c.mode == DevMode::Zero) {
            const __m256d term =
                _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, zero)));
            for (size_t k = 0; k < K; ++k)
                for (size_t b = 0; b < B; ++b)
                    dist[k][b] = _mm256_add_pd(dist[k][b], term);
            continue;
        }
        const __m256d* scale = c.capacity ? &floored[0][0] : &lvl[0][0];
        if (c.mode == DevMode::Upper) {
            const __m256d slack = _mm256_set1_pd(0.05);
            for (size_t b = 0; b < B; ++b) {
                const __m256d base =
                    _mm256_load_pd(c.base + e + b * kKernelBlock);
                for (size_t k = 0; k < K; ++k) {
                    __m256d pred =
                        vclamp01h(_mm256_mul_pd(base, scale[k * B + b]));
                    __m256d over = _mm256_max_pd(zero, _mm256_sub_pd(pred, t));
                    __m256d under =
                        _mm256_max_pd(zero, _mm256_sub_pd(t, pred));
                    __m256d term =
                        _mm256_add_pd(over, _mm256_mul_pd(slack, under));
                    dist[k][b] =
                        _mm256_add_pd(dist[k][b], _mm256_mul_pd(w, term));
                }
            }
        } else {
            for (size_t b = 0; b < B; ++b) {
                const __m256d base =
                    _mm256_load_pd(c.base + e + b * kKernelBlock);
                for (size_t k = 0; k < K; ++k) {
                    __m256d pred =
                        vclamp01h(_mm256_mul_pd(base, scale[k * B + b]));
                    dist[k][b] = _mm256_add_pd(
                        dist[k][b],
                        _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred))));
                }
            }
        }
    }
    const __m256d wsum = _mm256_set1_pd(ph.wsum);
    for (size_t k = 0; k < K; ++k)
        for (size_t b = 0; b < B; ++b)
            out[k][b] = _mm256_div_pd(dist[k][b], wsum);
}

/**
 * The ternary searches of the B entry blocks starting at entry e, side
 * by side, then their scores at the fitted levels. One block's search
 * is a chain of dependent divisions and deviation sums; B blocks'
 * chains overlap.
 */
template <size_t B>
BOLT_AVX2 inline void
fitBlocks(const FitSpec& spec, const FitPhase& fit, const FitPhase& score,
          size_t e, double* levels, double* scores)
{
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    __m256d lo[B], hi[B];
    for (size_t b = 0; b < B; ++b) {
        lo[b] = _mm256_set1_pd(spec.lo);
        hi[b] = _mm256_set1_pd(spec.hi);
    }
    for (int it = 0; it < spec.iters; ++it) {
        __m256d m[2][B], d[2][B];
        for (size_t b = 0; b < B; ++b) {
            __m256d step = _mm256_div_pd(_mm256_sub_pd(hi[b], lo[b]), third);
            m[0][b] = _mm256_add_pd(lo[b], step);
            m[1][b] = _mm256_sub_pd(hi[b], step);
        }
        fitDeviations(fit, spec.capacityFloor, e, m, d);
        for (size_t b = 0; b < B; ++b) {
            __m256d take = _mm256_cmp_pd(d[0][b], d[1][b], _CMP_LT_OQ);
            hi[b] = _mm256_blendv_pd(hi[b], m[1][b], take);
            lo[b] = _mm256_blendv_pd(m[0][b], lo[b], take);
        }
    }
    __m256d level[1][B], dist[1][B];
    for (size_t b = 0; b < B; ++b) {
        level[0][b] = _mm256_mul_pd(half, _mm256_add_pd(lo[b], hi[b]));
        _mm256_store_pd(levels + e + b * kKernelBlock, level[0][b]);
    }
    fitDeviations(score, spec.capacityFloor, e, level, dist);
    for (size_t b = 0; b < B; ++b)
        _mm256_store_pd(scores + e + b * kKernelBlock, dist[0][b]);
}

/** Entry blocks fitLevelsAndScore searches side by side. */
constexpr size_t kFitBlocks = 4;

} // namespace

BOLT_AVX2 void
fitLevelsAndScore(const FitSpec& spec, size_t entry_count, double* levels,
                  double* scores)
{
    const FitPhase fit = fitPhase(spec, true);
    const FitPhase score = fitPhase(spec, false);
    // kFitBlocks blocks at a time, then a 2-block and a 1-block tail.
    static_assert(kFitBlocks == 4);
    const size_t blocks = paddedCount(entry_count) / kKernelBlock;
    size_t b = 0;
    for (; b + kFitBlocks <= blocks; b += kFitBlocks)
        fitBlocks<kFitBlocks>(spec, fit, score, b * kKernelBlock, levels,
                              scores);
    if (blocks - b >= 2) {
        fitBlocks<2>(spec, fit, score, b * kKernelBlock, levels, scores);
        b += 2;
    }
    if (blocks - b == 1)
        fitBlocks<1>(spec, fit, score, b * kKernelBlock, levels, scores);
}

namespace {

/**
 * Gap from target v to [lo_v, hi_v] per lane (0 inside): lo_v - v below
 * the interval, else max(v - hi_v, 0), which is v - hi_v above it and
 * +0 otherwise, like the reference's nested ternary.
 */
BOLT_AVX2 inline __m256d
vgap(__m256d v, __m256d lo_v, __m256d hi_v)
{
    __m256d below = _mm256_cmp_pd(v, lo_v, _CMP_LT_OQ);
    return _mm256_blendv_pd(
        _mm256_max_pd(_mm256_sub_pd(v, hi_v), _mm256_setzero_pd()),
        _mm256_sub_pd(lo_v, v), below);
}

/**
 * The bounds of the B candidate blocks starting at lane e on a C-cell
 * grid. One accumulator per (base cell, candidate cell, block), walked
 * coordinate-outer so each candidate edge is loaded (or gathered
 * through `index`) once; every accumulator still sums its terms in
 * coordinate order, like the reference's pair-outer loop. fixed[i][a]
 * is core coordinate i's candidate-independent term in base cell a.
 */
template <size_t C, size_t B>
BOLT_AVX2 inline void
pruneBlocks(const PruneCoord* coords, size_t coord_count,
            const double (*fixed)[kMaxPruneCells], size_t e,
            const uint32_t* index, double* bounds)
{
    const __m256d hundred = _mm256_set1_pd(100.0);
    const __m256d all_lanes = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d lb[C][C][B];
    for (size_t a = 0; a < C; ++a)
        for (size_t b = 0; b < C; ++b)
            for (size_t l = 0; l < B; ++l)
                lb[a][b][l] = _mm256_setzero_pd();
    __m128i rows[B] = {};
    if (index)
        for (size_t l = 0; l < B; ++l)
            rows[l] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                index + e + l * kKernelBlock));
    for (size_t i = 0; i < coord_count; ++i) {
        const PruneCoord& c = coords[i];
        if (!c.additive) {
            for (size_t a = 0; a < C; ++a) {
                const __m256d term = _mm256_set1_pd(fixed[i][a]);
                for (size_t b = 0; b < C; ++b)
                    for (size_t l = 0; l < B; ++l)
                        lb[a][b][l] = _mm256_add_pd(lb[a][b][l], term);
            }
            continue;
        }
        const __m256d v = _mm256_set1_pd(c.target);
        const __m256d w = _mm256_set1_pd(c.weight);
        __m256d cand[C + 1][B];
        for (size_t k = 0; k <= C; ++k)
            for (size_t l = 0; l < B; ++l)
                cand[k][l] =
                    index ? _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                     c.cand[k], rows[l],
                                                     all_lanes, 8)
                          : _mm256_load_pd(c.cand[k] + e + l * kKernelBlock);
        for (size_t a = 0; a < C; ++a) {
            const __m256d base_lo = _mm256_set1_pd(c.base[a]);
            const __m256d base_hi = _mm256_set1_pd(c.base[a + 1]);
            for (size_t b = 0; b < C; ++b)
                for (size_t l = 0; l < B; ++l) {
                    __m256d lo_v = _mm256_min_pd(
                        _mm256_add_pd(base_lo, cand[b][l]), hundred);
                    __m256d hi_v = _mm256_min_pd(
                        _mm256_add_pd(base_hi, cand[b + 1][l]), hundred);
                    lb[a][b][l] = _mm256_add_pd(
                        lb[a][b][l], _mm256_mul_pd(w, vgap(v, lo_v, hi_v)));
                }
        }
    }
    for (size_t l = 0; l < B; ++l) {
        __m256d best =
            _mm256_set1_pd(std::numeric_limits<double>::infinity());
        for (size_t a = 0; a < C; ++a)
            for (size_t b = 0; b < C; ++b)
                best = _mm256_min_pd(lb[a][b][l], best);
        _mm256_store_pd(bounds + e + l * kKernelBlock, best);
    }
}

/**
 * pruneBounds on a C-cell grid, B blocks at a time (then one at a
 * time): a one-cell bound has one add chain per block, so it steps
 * several blocks together; a grid bound has C * C chains per block.
 */
template <size_t C, size_t B>
BOLT_AVX2 void
pruneCells(const PruneCoord* coords, size_t coord_count, size_t entry_count,
           double* bounds, const uint32_t* index)
{
    // Core coordinates' terms do not depend on the candidate; computed
    // once, exactly as the reference computes them per candidate.
    double fixed[kMaxFitCoords][kMaxPruneCells] = {};
    for (size_t i = 0; i < coord_count; ++i) {
        const PruneCoord& c = coords[i];
        if (c.additive)
            continue;
        for (size_t a = 0; a < C; ++a) {
            double lo_v = c.base[a], hi_v = c.base[a + 1], v = c.target;
            double gap = v < lo_v ? lo_v - v : (v > hi_v ? v - hi_v : 0.0);
            fixed[i][a] = c.weight * gap;
        }
    }
    const size_t blocks = paddedCount(entry_count) / kKernelBlock;
    size_t b = 0;
    for (; b + B <= blocks; b += B)
        pruneBlocks<C, B>(coords, coord_count, fixed, b * kKernelBlock,
                          index, bounds);
    for (; b < blocks; ++b)
        pruneBlocks<C, 1>(coords, coord_count, fixed, b * kKernelBlock,
                          index, bounds);
}

} // namespace

BOLT_AVX2 void
pruneBounds(const PruneCoord* coords, size_t coord_count, size_t cells,
            size_t entry_count, double* bounds, const uint32_t* index)
{
    static_assert(kMaxPruneCells == 4);
    switch (cells) {
    case 1:
        pruneCells<1, 4>(coords, coord_count, entry_count, bounds, index);
        break;
    case 2:
        pruneCells<2, 1>(coords, coord_count, entry_count, bounds, index);
        break;
    case 3:
        pruneCells<3, 1>(coords, coord_count, entry_count, bounds, index);
        break;
    default:
        pruneCells<4, 1>(coords, coord_count, entry_count, bounds, index);
        break;
    }
}

namespace {

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
    return _mm256_load_pd(
        (p + 1 < spec.partCount ? spec.fixedBase[p * spec.coordCount + i]
                                : spec.candBase[i]) +
        e);
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
            st.lvl[p][b] = _mm256_load_pd(spec.fixedInitLevels[p] + cand +
                                          b * kKernelBlock);
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
