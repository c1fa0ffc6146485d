#ifndef BOLT_LINALG_KERNELS_H
#define BOLT_LINALG_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

namespace bolt {
namespace linalg {

/**
 * Blocked kernels for the recommender's serve-path math.
 *
 * The recommender ranks a query against every training entry with the
 * same few inner loops: a weighted-Pearson pass, a ternary level-fit of
 * the load-scaling law, a lower-bound prune test, and a multi-part
 * coordinate-descent refit. This header turns each of those loops
 * inside out — entries become the innermost dimension, processed in
 * fixed-width blocks over structure-of-arrays columns — so one query
 * against E entries is blocked column work instead of E scalar passes.
 *
 * Determinism contract: every kernel is *bit-identical* to the scalar
 * reference loops it replaces. Entries are independent output lanes, so
 * blocking (and the SIMD backends) only evaluates independent lanes
 * side by side; no reduction is ever reassociated, every per-entry
 * accumulation keeps the reference coordinate order, and the SIMD
 * functions are compiled without FMA (neither the target nor
 * contraction allows it) so a vector lane executes exactly the scalar
 * instruction stream. The scalar backend is the golden reference;
 * tests/test_kernels.cc holds the bit-equality suite.
 *
 * Backend selection: the two SIMD backends are one width-generic source
 * (kernels_simd.inc) built for AVX2 (4 lanes) and for AVX-512F (8
 * lanes), and both are part of every x86-64 build. At startup the
 * widest one the CPU reports runs: Avx512, else Avx2, else (and on
 * other platforms) Scalar.
 *
 * This layer is resource-agnostic (linalg sits below sim): callers pass
 * the load-scaling tags (capacity => load floor) and deviation mode per
 * coordinate explicitly.
 */

/**
 * The padding unit: doubles per block of the widest backend (AVX-512:
 * one 512-bit register). Every padded column and output holds whole
 * registers of every backend.
 */
constexpr size_t kKernelBlock = 8;

/** Alignment of SoA columns and kernel scratch (one cache line). */
constexpr size_t kKernelAlign = 64;

/** Entry count rounded up to a whole block. */
constexpr size_t
paddedCount(size_t n)
{
    return (n + kKernelBlock - 1) / kKernelBlock * kKernelBlock;
}

/** Minimal aligned allocator so kernel buffers can live in std::vector. */
template <typename T>
struct KernelAllocator
{
    using value_type = T;
    KernelAllocator() = default;
    template <typename U>
    KernelAllocator(const KernelAllocator<U>&)
    {
    }
    T* allocate(size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t(kKernelAlign)));
    }
    void deallocate(T* p, size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(kKernelAlign));
    }
    template <typename U>
    bool operator==(const KernelAllocator<U>&) const
    {
        return true;
    }
};

/** Cache-line-aligned double buffer (padded kernel outputs/scratch). */
using AlignedVector = std::vector<double, KernelAllocator<double>>;

/**
 * Column-major structure-of-arrays matrix: `rows` logical rows by
 * `cols` columns, each column a contiguous aligned array padded to a
 * whole number of kernel blocks with a zero tail. The kernels stream
 * one column per coordinate and process rows in blocks; the zero tail
 * keeps tail blocks finite (outputs beyond rows() are ignored).
 */
class SoaMatrix
{
  public:
    SoaMatrix() = default;
    SoaMatrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), padded_(paddedCount(rows)),
          data_(padded_ * cols, 0.0)
    {
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    /** Rows per column as stored (rows() rounded up to a block). */
    size_t paddedRows() const { return padded_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** Contiguous padded column c. */
    double* col(size_t c) { return data_.data() + c * padded_; }
    const double* col(size_t c) const { return data_.data() + c * padded_; }

    double& at(size_t r, size_t c) { return data_[c * padded_ + r]; }
    double at(size_t r, size_t c) const { return data_[c * padded_ + r]; }

    /**
     * Append one row (width cols()), growing every column by one logical
     * row; re-pads in place, zeroing any fresh tail.
     */
    void appendRow(std::span<const double> row);

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t padded_ = 0;
    AlignedVector data_;
};

/** Kernel backend. Scalar is the golden reference. */
enum class KernelBackend : uint8_t {
    Scalar,
    Avx2,   ///< Available on x86-64 CPUs that report AVX2.
    Avx512, ///< Available on x86-64 CPUs that report AVX-512F.
};

/**
 * Backend used by subsequent kernel calls (process-wide). Starts as
 * the widest available: Avx512, else Avx2, else Scalar.
 */
KernelBackend activeKernelBackend();

/** The backend's name: "scalar", "avx2" or "avx512". */
const char* kernelBackendName(KernelBackend b);

/** Whether a backend can run here (x86-64 + the CPU's support). */
bool kernelBackendAvailable(KernelBackend b);

/**
 * Select the kernel backend; returns false (and keeps the current
 * backend) when unavailable. The hook of the backend-equivalence
 * tests — not for mid-query switching.
 */
bool setKernelBackend(KernelBackend b);

/**
 * Sequential dot product of k-ascending accumulation order — the shared
 * primitive of the SVD-projection/full-row reconstruction (one victim
 * factor row against each item factor row). Kept scalar on every
 * backend: vectorizing a single dot would reassociate the reduction.
 */
inline double
dotOrdered(const double* a, const double* b, size_t k)
{
    double acc = 0.0;
    for (size_t i = 0; i < k; ++i)
        acc += a[i] * b[i];
    return acc;
}

// ---------------------------------------------------------------------
// Weighted Pearson against every entry (the ranking stage)
// ---------------------------------------------------------------------

/**
 * Query-invariant half of weightedPearson(query, entry_row, w) against a
 * fixed row set and fixed weights, hoisted once: the weight sum, each
 * entry's weighted mean and variance, and the mean-centered rows stored
 * as SoA columns (one column per coordinate, entries padded). All three
 * are accumulated in the reference implementation's order, so a blocked
 * correlation is bit-identical to calling weightedPearson per entry.
 */
struct PearsonTable
{
    size_t entries = 0;
    size_t lanes = 0; ///< Coordinates per row (columns of the row set).
    double wsum = 0.0;
    std::vector<double> weights; ///< The fixed weight vector.
    SoaMatrix centered;          ///< col(i)[e] = rows(e,i) - mean_e.
    AlignedVector variance;      ///< Weighted variance per entry, padded.
};

/**
 * Build the entry-side table for `rows` (SoA, entries x lanes) under
 * `weights` (length lanes).
 */
PearsonTable buildPearsonTable(const SoaMatrix& rows,
                               std::span<const double> weights);

/**
 * Weighted Pearson of one query row (length lanes) against every table
 * entry: out needs table.centered.paddedRows() capacity, and the caller
 * ignores lanes beyond entries. Bit-identical per entry e to
 * weightedPearson(query, row_e, weights).
 */
void pearsonRow(const PearsonTable& table, const double* query,
                double* out);

// ---------------------------------------------------------------------
// Blocked ternary level fit (analyze ranking / decompose shortlists)
// ---------------------------------------------------------------------

/** How one observed coordinate contributes to a deviation. */
enum class DevMode : uint8_t {
    Abs,   ///< w * |target - pred|.
    Upper, ///< w * (max(0, pred-t) + 0.05 * max(0, t-pred)); skippable.
    Zero,  ///< Prediction forced to 0: w * |target - 0|.
};

/** Upper bounds on kernel problem shapes (stack scratch sizing). */
constexpr size_t kMaxFitCoords = 16;
constexpr size_t kMaxWidenParts = 6;

/**
 * One observed coordinate of a level-fit problem. `base` is the padded
 * SoA column of per-entry full-load bases for this coordinate (from the
 * scaled-profile table); prediction at level L is
 * clamp(base * (capacity ? max(L, capacityFloor) : L), 0, 100),
 * exactly workloads::scaledPressureAt.
 */
struct FitCoord
{
    const double* base = nullptr;
    double weight = 0.0;
    double target = 0.0;
    DevMode mode = DevMode::Abs;
    bool capacity = false;
};

/**
 * Blocked ternary level search, entries as lanes: per entry, `iters`
 * iterations shrinking [lo, hi] by thirds on the fit deviation
 * (skipUpperInFit drops Upper coordinates and divides by fitWsum),
 * then a final deviation at the fitted midpoint level over *all*
 * coordinates divided by scoreWsum. A non-positive wsum yields 1e9,
 * like the reference. Identical branch trajectory per entry to the
 * scalar ternary search.
 */
struct FitSpec
{
    const FitCoord* coords = nullptr;
    size_t coordCount = 0;
    int iters = 18;
    double lo = 0.05;
    double hi = 1.1;
    double capacityFloor = 0.85;
    bool skipUpperInFit = false;
    double fitWsum = 0.0;
    double scoreWsum = 0.0;
};

/**
 * Fit every entry in [0, entry_count): levels[e] gets the fitted level,
 * scores[e] the final deviation at that level. Both outputs must have
 * paddedCount(entry_count) capacity; tail lanes hold garbage.
 */
void fitLevelsAndScore(const FitSpec& spec, size_t entry_count,
                       double* levels, double* scores);

// ---------------------------------------------------------------------
// Blocked lower-bound pruning (decompose's candidate gate)
// ---------------------------------------------------------------------

/** Upper bound on the level cells per part of the prune bound. */
constexpr size_t kMaxPruneCells = 4;

/**
 * One observed coordinate of the prune bound on a grid of `cells` level
 * cells, shared by every coordinate. Edge k of a cell grid is a level;
 * with the base parts in cell a their prediction sum lies in
 * [base[a], base[a+1]], and with the candidate in cell b its own
 * prediction lies in [cand[b][e], cand[b+1][e]]. Additive coordinates
 * sum the two intervals (clamped at 100); for core coordinates the
 * candidate never contributes and the caller bakes the core-shared case
 * into base (zeros when no core is shared).
 */
struct PruneCoord
{
    /** Candidate prediction at each edge: padded columns (additive). */
    const double* cand[kMaxPruneCells + 1] = {};
    /** Base parts' summed prediction at each edge. */
    double base[kMaxPruneCells + 1] = {};
    double weight = 0.0;
    double target = 0.0;
    bool additive = true; ///< False: candidate-independent (core) coord.
};

/**
 * Unnormalized lower bound on each candidate's best reachable deviation
 * (the caller divides by its weight sum and compares to the incumbent).
 * For every (base cell, candidate cell) pair, each coordinate adds its
 * weighted gap between target and prediction interval; the bound is the
 * smallest pair sum. Whatever cells the final levels fall in, that
 * pair's sum bounds the exact deviation term by term, so the minimum
 * does too. With cells == 1 every coordinate spans the whole level range
 * independently. bounds needs paddedCount(entry_count) capacity.
 * Bit-identical per candidate to the scalar bound loop.
 *
 * Candidate e reads row e of the cand columns, or row index[e] when an
 * index list is given; the list then needs paddedCount(entry_count)
 * entries, and the tail's must be rows the columns hold (the SIMD
 * backends gather whole registers).
 */
void pruneBounds(const PruneCoord* coords, size_t coord_count, size_t cells,
                 size_t entry_count, double* bounds,
                 const uint32_t* index = nullptr);

// ---------------------------------------------------------------------
// Blocked multi-part coordinate-descent refit (decompose widening)
// ---------------------------------------------------------------------

/** One observed coordinate of the widening refit. */
struct WidenCoord
{
    double weight = 0.0;
    double target = 0.0;
    bool core = false; ///< Explained by part 0 alone (or nobody).
    bool capacity = false;
};

/**
 * The decompose widening step, candidates as lanes: every candidate
 * extends its own fixed base parts with its own trailing part, then
 * runs `rounds` rounds of per-part ternary refits (each `iters`
 * iterations) and reports the final deviation. State per candidate is
 * the parts' level vector; all candidates execute the same operation
 * sequence, so lanes stay independent and bit-identical to evaluating
 * each candidate with the scalar refit loop.
 *
 * Every part input is per lane, one padded SoA column each, packed by
 * the caller to the queued candidates: fixedBase[p * coordCount + i]
 * holds fixed part p's full-load bases on coordinate i,
 * fixedInitLevels[p] its starting levels, and candBase[i] the trailing
 * part's bases. Lanes of one call may so extend different base parts.
 */
struct WidenSpec
{
    const WidenCoord* coords = nullptr;
    size_t coordCount = 0;
    size_t partCount = 0; ///< Fixed parts + 1 (the candidate).
    /** (partCount-1) x coordCount padded columns, part-major. */
    const double* const* fixedBase = nullptr;
    const double* const* candBase = nullptr; ///< Per-coord padded column.
    /** partCount-1 padded columns of starting levels. */
    const double* const* fixedInitLevels = nullptr;
    double candInitLevel = 0.8;
    bool coreShared = false;
    double wsum = 0.0; ///< Caller guarantees > 0 (prune gate).
    int rounds = 2;
    int iters = 12;
    double lo = 0.05;
    double hi = 1.1;
    double capacityFloor = 0.85;
};

/**
 * Candidate registers the SIMD widenFit refits side by side (a
 * register's ternary search is one long dependency chain per probe;
 * three overlap their chains).
 */
constexpr size_t kWidenBlocks = 3;

/**
 * Candidates one widenFit call of the active backend refits side by
 * side: kWidenBlocks registers, 24 on Avx512 and 12 on Avx2 (Scalar
 * takes Avx2's 12). A caller that queues this many per call keeps
 * every call on the full-width path; at most kWidenBlocks *
 * kKernelBlock.
 */
size_t widenFitLanes();

/**
 * Refit every packed candidate in [0, cand_count): dist[e] gets the
 * final deviation, levels[e * partCount + p] the fitted level of part p.
 * dist needs paddedCount(cand_count) capacity; levels needs
 * paddedCount(cand_count) * partCount.
 */
void widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
              double* levels);

} // namespace linalg
} // namespace bolt

#endif // BOLT_LINALG_KERNELS_H
