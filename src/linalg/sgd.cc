#include "sgd.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace bolt {
namespace linalg {

double
SgdResult::predict(size_t row, size_t col) const
{
    double acc = 0.0;
    for (size_t k = 0; k < p.cols(); ++k)
        acc += p(row, k) * q(col, k);
    return acc;
}

std::vector<double>
SgdResult::reconstructRow(size_t row) const
{
    std::vector<double> out(q.rows());
    for (size_t c = 0; c < q.rows(); ++c)
        out[c] = predict(row, c);
    return out;
}

SparseMatrix
SparseMatrix::dense(const Matrix& m)
{
    SparseMatrix out;
    out.values = m;
    out.mask.assign(m.rows(), std::vector<bool>(m.cols(), true));
    return out;
}

const std::vector<size_t>&
SgdScratch::epochOrder(uint64_t seed, size_t count, size_t epoch)
{
    PermCache* cache = nullptr;
    for (auto& c : caches) {
        if (c.seed == seed && c.count == count) {
            cache = &c;
            break;
        }
    }
    if (cache == nullptr) {
        caches.emplace_back();
        cache = &caches.back();
        cache->seed = seed;
        cache->count = count;
        cache->rng = util::Rng(seed);
    }
    while (cache->orders.size() <= epoch)
        cache->orders.push_back(cache->rng.permutation(count));
    return cache->orders[epoch];
}

namespace {

/**
 * The SGD epoch loop shared by both entry points. `order_for(epoch)`
 * supplies the shuffled visit order — drawn live in sgdFactorize,
 * replayed from SgdScratch's cache in sgdFactorizeWarm — so the two
 * paths cannot drift arithmetically.
 */
template <typename OrderFn>
void
runSgdEpochs(SgdResult& res, const std::vector<SgdEntry>& entries,
             const SgdConfig& config, OrderFn&& order_for)
{
    const size_t r = config.rank;
    double prev_rmse = std::numeric_limits<double>::infinity();
    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const std::vector<size_t>& order = order_for(epoch);
        double sq_err = 0.0;
        for (size_t idx : order) {
            const SgdEntry& e = entries[idx];
            double* pr = res.p.rowPtr(e.row);
            double* qr = res.q.rowPtr(e.col);
            double acc = 0.0;
            for (size_t k = 0; k < r; ++k)
                acc += pr[k] * qr[k];
            double err = e.value - acc;
            sq_err += err * err;
            for (size_t k = 0; k < r; ++k) {
                double pk = pr[k];
                double qk = qr[k];
                pr[k] += config.learningRate *
                         (err * qk - config.regularization * pk);
                qr[k] += config.learningRate *
                         (err * pk - config.regularization * qk);
            }
        }
        res.trainRmse =
            std::sqrt(sq_err / static_cast<double>(entries.size()));
        res.epochsRun = epoch + 1;
        if (std::abs(prev_rmse - res.trainRmse) < config.tolerance)
            break;
        prev_rmse = res.trainRmse;
    }
}

} // namespace

SgdResult
sgdFactorize(const SparseMatrix& data, const SgdConfig& config,
             const std::optional<Matrix>& warm_p,
             const std::optional<Matrix>& warm_q)
{
    size_t m = data.rows();
    size_t n = data.cols();
    size_t r = config.rank;
    if (m == 0 || n == 0 || r == 0)
        throw std::invalid_argument("sgdFactorize: empty problem");
    if (data.mask.size() != m || (m > 0 && data.mask[0].size() != n))
        throw std::invalid_argument("sgdFactorize: mask shape mismatch");

    // Collect observed entries once; SGD iterates over them in a
    // per-epoch shuffled order.
    size_t observed = 0;
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            if (data.known(i, j))
                ++observed;
    std::vector<SgdEntry> entries;
    entries.reserve(observed);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            if (data.known(i, j))
                entries.push_back({i, j, data.values(i, j)});
    if (entries.empty())
        throw std::invalid_argument("sgdFactorize: no observed entries");

    util::Rng rng(config.seed);
    SgdResult res;
    res.p = warm_p.value_or(Matrix(m, r));
    res.q = warm_q.value_or(Matrix(n, r));
    if (res.p.rows() != m || res.p.cols() != r ||
        res.q.rows() != n || res.q.cols() != r) {
        throw std::invalid_argument("sgdFactorize: warm-start shape");
    }
    if (!warm_p) {
        for (size_t i = 0; i < m; ++i)
            for (size_t k = 0; k < r; ++k)
                res.p(i, k) = rng.gaussian(0.0, 0.1);
    }
    if (!warm_q) {
        for (size_t j = 0; j < n; ++j)
            for (size_t k = 0; k < r; ++k)
                res.q(j, k) = rng.gaussian(0.0, 0.1);
    }

    std::vector<size_t> order;
    runSgdEpochs(res, entries, config,
                 [&](size_t) -> const std::vector<size_t>& {
                     order = rng.permutation(entries.size());
                     return order;
                 });
    return res;
}

const SgdResult&
sgdFactorizeWarm(const SgdConfig& config, const Matrix& warm_p,
                 const Matrix& warm_q, SgdScratch& scratch)
{
    if (warm_p.rows() == 0 || warm_q.rows() == 0 || config.rank == 0 ||
        warm_p.cols() != config.rank || warm_q.cols() != config.rank) {
        throw std::invalid_argument("sgdFactorizeWarm: warm-start shape");
    }
    if (scratch.entries.empty())
        throw std::invalid_argument(
            "sgdFactorizeWarm: no observed entries");

    SgdResult& res = scratch.result;
    res.p = warm_p;
    res.q = warm_q;
    res.trainRmse = 0.0;
    res.epochsRun = 0;
    runSgdEpochs(res, scratch.entries, config,
                 [&](size_t epoch) -> const std::vector<size_t>& {
                     return scratch.epochOrder(
                         config.seed, scratch.entries.size(), epoch);
                 });
    return res;
}

} // namespace linalg
} // namespace bolt
