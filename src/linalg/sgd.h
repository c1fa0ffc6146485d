#ifndef BOLT_LINALG_SGD_H
#define BOLT_LINALG_SGD_H

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.h"
#include "util/rng.h"

namespace bolt {
namespace linalg {

/**
 * Configuration for the SGD PQ-reconstruction (matrix completion) solver.
 */
struct SgdConfig
{
    size_t rank = 3;            ///< Latent dimensionality r.
    size_t epochs = 200;        ///< Passes over the known entries.
    double learningRate = 0.01; ///< SGD step size.
    double regularization = 0.05; ///< L2 penalty on factors.
    double tolerance = 1e-6;    ///< Early-exit on training RMSE delta.
    uint64_t seed = 42;         ///< Factor-initialization seed.
};

/**
 * Result of a PQ factorization A ~= P * Q^T restricted to known entries.
 */
struct SgdResult
{
    Matrix p;             ///< Row factors (m x r).
    Matrix q;             ///< Column factors (n x r).
    double trainRmse = 0; ///< RMSE over known entries at termination.
    size_t epochsRun = 0; ///< Epochs actually executed.

    /** Predicted value for entry (r, c). */
    double predict(size_t row, size_t col) const;

    /** Full reconstructed row. */
    std::vector<double> reconstructRow(size_t row) const;
};

/** One observed entry of a sparse factorization problem. */
struct SgdEntry
{
    size_t row = 0;
    size_t col = 0;
    double value = 0.0;
};

/**
 * Reusable state for repeated warm-started factorizations of the same
 * problem family (the recommender runs one per query).
 *
 * Holds the caller-built entry list, the result factors (reused as raw
 * storage between calls, so a warm-started solve performs no heap
 * allocation after the first call), and cached per-epoch shuffle
 * orders. The shuffle sequence of sgdFactorize is a pure function of
 * (seed, entry count) when warm starts are supplied — no initialization
 * draws precede it — so it can be generated once and replayed, which
 * removes ~entries x epochs RNG draws and one allocation per epoch from
 * every query.
 *
 * Not thread-safe: use one scratch per thread.
 */
struct SgdScratch
{
    std::vector<SgdEntry> entries; ///< Caller-built observed entries.
    SgdResult result;              ///< Factor storage reused across calls.

    /** Cached shuffle orders for one (seed, entry-count) shape. */
    struct PermCache
    {
        uint64_t seed = 0;
        size_t count = 0;
        util::Rng rng{0};  ///< Continues the sequence across epochs.
        std::vector<std::vector<size_t>> orders;
    };
    std::vector<PermCache> caches;

    /**
     * The epoch-th shuffle order of a warm-started solve with this seed
     * and entry count; generated lazily, cached forever.
     */
    const std::vector<size_t>& epochOrder(uint64_t seed, size_t count,
                                          size_t epoch);
};

/**
 * Sparse matrix view: `known(r, c)` tells whether entry (r, c) of `values`
 * is observed. Missing entries are ignored by the solver and filled by
 * prediction.
 */
struct SparseMatrix
{
    Matrix values;                       ///< Dense storage; NaN-free.
    std::vector<std::vector<bool>> mask; ///< mask[r][c]: entry observed.

    size_t rows() const { return values.rows(); }
    size_t cols() const { return values.cols(); }
    bool known(size_t r, size_t c) const { return mask[r][c]; }

    /** Fully-observed view of a dense matrix. */
    static SparseMatrix dense(const Matrix& m);
};

/**
 * Factorize a partially-observed matrix with stochastic gradient descent
 * (the PQ-reconstruction step of the paper's collaborative-filtering
 * stage, following Bottou-style SGD with L2 regularization).
 *
 * @param data        Observed entries.
 * @param config      Solver parameters.
 * @param warm_p      Optional warm start for P (e.g. U*sqrt(S) from SVD).
 * @param warm_q      Optional warm start for Q (e.g. V*sqrt(S) from SVD).
 */
SgdResult sgdFactorize(const SparseMatrix& data, const SgdConfig& config,
                       const std::optional<Matrix>& warm_p = std::nullopt,
                       const std::optional<Matrix>& warm_q = std::nullopt);

/**
 * Warm-started factorization over caller-built entries with reusable
 * buffers: bit-identical to sgdFactorize on the equivalent SparseMatrix
 * with the same warm starts, but performs no heap allocation once the
 * scratch is warm (factors are copied into scratch.result's storage and
 * shuffle orders come from scratch's permutation cache).
 *
 * Requirements: scratch.entries non-empty with row < warm_p.rows() and
 * col < warm_q.rows(); warm_p/warm_q must have config.rank columns.
 * The returned reference aliases scratch.result and is invalidated by
 * the next call with the same scratch.
 */
const SgdResult& sgdFactorizeWarm(const SgdConfig& config,
                                  const Matrix& warm_p, const Matrix& warm_q,
                                  SgdScratch& scratch);

} // namespace linalg
} // namespace bolt

#endif // BOLT_LINALG_SGD_H
