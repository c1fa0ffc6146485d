#include "kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bolt {
namespace linalg {

void
SoaMatrix::appendRow(std::span<const double> row)
{
    if (rows_ == 0 && cols_ == 0)
        cols_ = row.size();
    if (row.size() != cols_ || cols_ == 0)
        throw std::invalid_argument("SoaMatrix::appendRow width mismatch");
    size_t new_rows = rows_ + 1;
    size_t new_padded = paddedCount(new_rows);
    if (new_padded != padded_) {
        AlignedVector grown(new_padded * cols_, 0.0);
        for (size_t c = 0; c < cols_; ++c)
            std::copy(data_.begin() + static_cast<long>(c * padded_),
                      data_.begin() + static_cast<long>(c * padded_ + rows_),
                      grown.begin() + static_cast<long>(c * new_padded));
        data_ = std::move(grown);
        padded_ = new_padded;
    }
    for (size_t c = 0; c < cols_; ++c)
        data_[c * padded_ + rows_] = row[c];
    rows_ = new_rows;
}

namespace {

/**
 * The scaling-law prediction every fit kernel shares — bit-identical to
 * workloads::scaledPressureAt (linalg cannot name it; the caller passes
 * the capacity tag and floor).
 */
inline double
predictAt(double base, bool capacity, double floor_, double level)
{
    double scale = capacity ? std::max(level, floor_) : level;
    return std::clamp(base * scale, 0.0, 100.0);
}

} // namespace

// ---------------------------------------------------------------------
// Scalar reference backend
// ---------------------------------------------------------------------

namespace scalar_kernels {

void
pearsonRow(const PearsonTable& t, const double* query, double* out)
{
    const size_t padded = t.centered.paddedRows();
    const size_t n = t.lanes;
    if (t.wsum <= 0.0) {
        std::fill(out, out + padded, 0.0);
        return;
    }
    // Query-side mean/variance, accumulated exactly like the reference's
    // joint loops (each accumulator is independent, so splitting them
    // preserves the bits).
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
    for (size_t e = 0; e < padded; ++e) {
        double cov = 0.0;
        for (size_t i = 0; i < n; ++i)
            cov += s[i] * t.centered.col(i)[e];
        double vb = t.variance[e];
        out[e] = (va <= 0.0 || vb <= 0.0) ? 0.0 : cov / std::sqrt(va * vb);
    }
}

namespace {

/** One deviation evaluation of entry e at `level` (fit or score phase). */
inline double
fitDeviation(const FitSpec& spec, size_t e, double level, bool fit_phase)
{
    double dist = 0.0;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const FitCoord& c = spec.coords[i];
        double pred = c.mode == DevMode::Zero
                          ? 0.0
                          : predictAt(c.base[e], c.capacity,
                                      spec.capacityFloor, level);
        if (c.mode == DevMode::Upper) {
            if (fit_phase && spec.skipUpperInFit)
                continue;
            double over = std::max(0.0, pred - c.target);
            double under = std::max(0.0, c.target - pred);
            dist += c.weight * (over + 0.05 * under);
        } else {
            dist += c.weight * std::abs(c.target - pred);
        }
    }
    double wsum = fit_phase ? spec.fitWsum : spec.scoreWsum;
    return wsum > 0.0 ? dist / wsum : 1e9;
}

} // namespace

void
fitLevelsAndScore(const FitSpec& spec, size_t entry_count, double* levels,
                  double* scores)
{
    for (size_t e = 0; e < entry_count; ++e) {
        double lo = spec.lo, hi = spec.hi;
        for (int it = 0; it < spec.iters; ++it) {
            double m1 = lo + (hi - lo) / 3.0;
            double m2 = hi - (hi - lo) / 3.0;
            if (fitDeviation(spec, e, m1, true) <
                fitDeviation(spec, e, m2, true)) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        double level = 0.5 * (lo + hi);
        levels[e] = level;
        scores[e] = fitDeviation(spec, e, level, false);
    }
}

void
pruneBounds(const PruneCoord* coords, size_t coord_count, size_t cells,
            size_t entry_count, double* bounds, const uint32_t* index)
{
    for (size_t e = 0; e < entry_count; ++e) {
        const size_t row = index ? index[e] : e;
        double best = std::numeric_limits<double>::infinity();
        for (size_t a = 0; a < cells; ++a) {
            for (size_t b = 0; b < cells; ++b) {
                double lb = 0.0;
                for (size_t i = 0; i < coord_count; ++i) {
                    const PruneCoord& c = coords[i];
                    double lo_v, hi_v;
                    if (c.additive) {
                        lo_v = std::min(c.base[a] + c.cand[b][row], 100.0);
                        hi_v = std::min(c.base[a + 1] + c.cand[b + 1][row],
                                        100.0);
                    } else {
                        lo_v = c.base[a];
                        hi_v = c.base[a + 1];
                    }
                    double v = c.target;
                    double gap =
                        v < lo_v ? lo_v - v : (v > hi_v ? v - hi_v : 0.0);
                    lb += c.weight * gap;
                }
                best = std::min(best, lb);
            }
        }
        bounds[e] = best;
    }
}

namespace {

/** Deviation of one widening candidate from its cached part values. */
inline double
widenDeviation(const WidenSpec& spec,
               const double vals[][kMaxWidenParts])
{
    double dist = 0.0;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const WidenCoord& c = spec.coords[i];
        double pred = 0.0;
        if (c.core) {
            if (spec.coreShared)
                pred = vals[i][0];
        } else {
            for (size_t p = 0; p < spec.partCount; ++p)
                pred += vals[i][p];
            pred = std::min(pred, 100.0);
        }
        dist += c.weight * std::abs(c.target - pred);
    }
    return spec.wsum > 0.0 ? dist / spec.wsum : 1e9;
}

} // namespace

void
widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
         double* levels)
{
    const size_t P = spec.partCount;
    const size_t N = spec.coordCount;
    double vals[kMaxFitCoords][kMaxWidenParts];
    double lvl[kMaxWidenParts];

    for (size_t cand = 0; cand < cand_count; ++cand) {
        auto base_of = [&](size_t p, size_t i) {
            return p + 1 < P ? spec.fixedBase[p * N + i][cand]
                             : spec.candBase[i][cand];
        };
        for (size_t p = 0; p + 1 < P; ++p)
            lvl[p] = spec.fixedInitLevels[p][cand];
        lvl[P - 1] = spec.candInitLevel;
        auto refresh = [&](size_t p, double level) {
            for (size_t i = 0; i < N; ++i)
                vals[i][p] = predictAt(base_of(p, i),
                                       spec.coords[i].capacity,
                                       spec.capacityFloor, level);
        };
        for (size_t p = 0; p < P; ++p)
            refresh(p, lvl[p]);

        for (int round = 0; round < spec.rounds; ++round) {
            for (size_t p = 0; p < P; ++p) {
                double lo = spec.lo, hi = spec.hi;
                for (int it = 0; it < spec.iters; ++it) {
                    double m1 = lo + (hi - lo) / 3.0;
                    double m2 = hi - (hi - lo) / 3.0;
                    refresh(p, m1);
                    double d1 = widenDeviation(spec, vals);
                    refresh(p, m2);
                    double d2 = widenDeviation(spec, vals);
                    if (d1 < d2)
                        hi = m2;
                    else
                        lo = m1;
                }
                lvl[p] = 0.5 * (lo + hi);
                refresh(p, lvl[p]);
            }
        }
        dist[cand] = widenDeviation(spec, vals);
        for (size_t p = 0; p < P; ++p)
            levels[cand * P + p] = lvl[p];
    }
}

} // namespace scalar_kernels

// ---------------------------------------------------------------------
// SIMD backends (x86-64 only): kernels_simd.inc built for AVX2 in
// kernels_avx2.cc and for AVX-512F in kernels_avx512.cc. Their
// functions carry target("avx2") or target("avx512f"), so each may
// only run once the CPU has reported that ISA.
// ---------------------------------------------------------------------

#if defined(__x86_64__)
namespace avx2_kernels {
void pearsonRow(const PearsonTable&, const double*, double*);
void fitLevelsAndScore(const FitSpec&, size_t, double*, double*);
void pruneBounds(const PruneCoord*, size_t, size_t, size_t, double*,
                 const uint32_t*);
void widenFit(const WidenSpec&, size_t, double*, double*);
} // namespace avx2_kernels
namespace avx512_kernels {
void pearsonRow(const PearsonTable&, const double*, double*);
void fitLevelsAndScore(const FitSpec&, size_t, double*, double*);
void pruneBounds(const PruneCoord*, size_t, size_t, size_t, double*,
                 const uint32_t*);
void widenFit(const WidenSpec&, size_t, double*, double*);
} // namespace avx512_kernels
#endif

// ---------------------------------------------------------------------
// Backend selection and dispatch
// ---------------------------------------------------------------------

namespace {

/** One backend's copy of each kernel. */
struct KernelSet
{
    void (*pearsonRow)(const PearsonTable&, const double*, double*);
    void (*fitLevelsAndScore)(const FitSpec&, size_t, double*, double*);
    void (*pruneBounds)(const PruneCoord*, size_t, size_t, size_t, double*,
                        const uint32_t*);
    void (*widenFit)(const WidenSpec&, size_t, double*, double*);
};

/** The widest backend the CPU reports. */
KernelBackend
defaultBackend()
{
    for (KernelBackend b : {KernelBackend::Avx512, KernelBackend::Avx2})
        if (kernelBackendAvailable(b))
            return b;
    return KernelBackend::Scalar;
}

std::atomic<KernelBackend>&
backendState()
{
    static std::atomic<KernelBackend> state{defaultBackend()};
    return state;
}

/** The active backend's kernels. */
const KernelSet&
activeKernels()
{
    static constexpr KernelSet kScalar{
        scalar_kernels::pearsonRow, scalar_kernels::fitLevelsAndScore,
        scalar_kernels::pruneBounds, scalar_kernels::widenFit};
#if defined(__x86_64__)
    static constexpr KernelSet kAvx2{
        avx2_kernels::pearsonRow, avx2_kernels::fitLevelsAndScore,
        avx2_kernels::pruneBounds, avx2_kernels::widenFit};
    static constexpr KernelSet kAvx512{
        avx512_kernels::pearsonRow, avx512_kernels::fitLevelsAndScore,
        avx512_kernels::pruneBounds, avx512_kernels::widenFit};
    switch (activeKernelBackend()) {
    case KernelBackend::Avx2:
        return kAvx2;
    case KernelBackend::Avx512:
        return kAvx512;
    case KernelBackend::Scalar:
        break;
    }
#endif
    return kScalar;
}

} // namespace

KernelBackend
activeKernelBackend()
{
    return backendState().load(std::memory_order_relaxed);
}

const char*
kernelBackendName(KernelBackend b)
{
    switch (b) {
    case KernelBackend::Scalar:
        return "scalar";
    case KernelBackend::Avx2:
        return "avx2";
    case KernelBackend::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
kernelBackendAvailable(KernelBackend b)
{
#if defined(__x86_64__)
    // Idempotent; keeps the check valid even before static constructors.
    __builtin_cpu_init();
    switch (b) {
    case KernelBackend::Scalar:
        return true;
    case KernelBackend::Avx2:
        return __builtin_cpu_supports("avx2");
    case KernelBackend::Avx512:
        return __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return b == KernelBackend::Scalar;
#endif
}

size_t
widenFitLanes()
{
    // A longer queue than one call's width buys no wider call and gates
    // more candidates against a staler incumbent, which costs refits.
    return kWidenBlocks *
           (activeKernelBackend() == KernelBackend::Avx512 ? 8 : 4);
}

bool
setKernelBackend(KernelBackend b)
{
    if (!kernelBackendAvailable(b))
        return false;
    backendState().store(b, std::memory_order_relaxed);
    return true;
}

PearsonTable
buildPearsonTable(const SoaMatrix& rows, std::span<const double> weights)
{
    if (!rows.empty() && rows.cols() != weights.size())
        throw std::invalid_argument("buildPearsonTable: weight width");
    if (weights.size() > kMaxFitCoords)
        throw std::invalid_argument("buildPearsonTable: too many lanes");
    PearsonTable t;
    t.entries = rows.rows();
    t.lanes = weights.size();
    t.weights.assign(weights.begin(), weights.end());
    // Reference order: wsum is a plain ascending sum of the weights.
    for (double w : t.weights)
        t.wsum += w;
    t.centered = SoaMatrix(t.entries, t.lanes);
    t.variance.assign(t.centered.paddedRows(), 0.0);
    if (t.wsum <= 0.0)
        return t; // Correlations will all be 0, like the reference.
    for (size_t e = 0; e < t.entries; ++e) {
        // The reference accumulates the entry-side mean and variance in
        // i-ascending loops; replayed here once instead of per query.
        double mb = 0.0;
        for (size_t i = 0; i < t.lanes; ++i)
            mb += t.weights[i] * rows.at(e, i);
        mb /= t.wsum;
        double vb = 0.0;
        for (size_t i = 0; i < t.lanes; ++i) {
            double db = rows.at(e, i) - mb;
            t.centered.col(i)[e] = db;
            vb += t.weights[i] * db * db;
        }
        t.variance[e] = vb;
    }
    return t;
}

void
pearsonRow(const PearsonTable& table, const double* query, double* out)
{
    activeKernels().pearsonRow(table, query, out);
}

void
fitLevelsAndScore(const FitSpec& spec, size_t entry_count, double* levels,
                  double* scores)
{
    if (spec.coordCount > kMaxFitCoords)
        throw std::invalid_argument("fitLevelsAndScore: too many coords");
    activeKernels().fitLevelsAndScore(spec, entry_count, levels, scores);
}

void
pruneBounds(const PruneCoord* coords, size_t coord_count, size_t cells,
            size_t entry_count, double* bounds, const uint32_t* index)
{
    if (coord_count > kMaxFitCoords || cells == 0 ||
        cells > kMaxPruneCells)
        throw std::invalid_argument("pruneBounds: shape out of range");
    activeKernels().pruneBounds(coords, coord_count, cells, entry_count,
                                bounds, index);
}

void
widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
         double* levels)
{
    if (spec.coordCount > kMaxFitCoords ||
        spec.partCount > kMaxWidenParts || spec.partCount == 0)
        throw std::invalid_argument("widenFit: shape out of range");
    activeKernels().widenFit(spec, cand_count, dist, levels);
}

} // namespace linalg
} // namespace bolt
