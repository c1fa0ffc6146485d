#include "fold_in.h"

#include <cmath>
#include <stdexcept>

namespace bolt {
namespace linalg {

void
choleskySolve(double* a, double* b, size_t k)
{
    // Factor: a's lower triangle becomes L, column by column.
    for (size_t j = 0; j < k; ++j) {
        double diag = a[j * k + j];
        for (size_t t = 0; t < j; ++t)
            diag -= a[j * k + t] * a[j * k + t];
        if (!(diag > 0.0))
            throw std::invalid_argument(
                "choleskySolve: matrix is not positive definite");
        double root = std::sqrt(diag);
        a[j * k + j] = root;
        for (size_t i = j + 1; i < k; ++i) {
            double v = a[i * k + j];
            for (size_t t = 0; t < j; ++t)
                v -= a[i * k + t] * a[j * k + t];
            a[i * k + j] = v / root;
        }
    }
    // Forward substitution L y = b, then back substitution L^T x = y.
    for (size_t i = 0; i < k; ++i) {
        double v = b[i];
        for (size_t t = 0; t < i; ++t)
            v -= a[i * k + t] * b[t];
        b[i] = v / a[i * k + i];
    }
    for (size_t i = k; i-- > 0;) {
        double v = b[i];
        for (size_t t = i + 1; t < k; ++t)
            v -= a[t * k + i] * b[t];
        b[i] = v / a[i * k + i];
    }
}

void
foldInRow(const Matrix& q, std::span<const size_t> cols,
          std::span<const double> values, std::span<const double> prior,
          double lambda, std::span<double> p)
{
    const size_t k = q.cols();
    if (k == 0 || k > kMaxFoldInRank || prior.size() != k ||
        p.size() != k || values.size() != cols.size() || !(lambda > 0.0))
        throw std::invalid_argument("foldInRow: shape or lambda");

    double a[kMaxFoldInRank * kMaxFoldInRank] = {};
    double d[kMaxFoldInRank] = {};
    for (size_t i = 0; i < k; ++i)
        a[i * k + i] = lambda;
    for (size_t e = 0; e < cols.size(); ++e) {
        if (cols[e] >= q.rows())
            throw std::invalid_argument("foldInRow: column out of range");
        const double* qc = q.rowPtr(cols[e]);
        double residual = values[e];
        for (size_t t = 0; t < k; ++t)
            residual -= qc[t] * prior[t];
        for (size_t i = 0; i < k; ++i) {
            d[i] += residual * qc[i];
            for (size_t j = 0; j <= i; ++j)
                a[i * k + j] += qc[i] * qc[j];
        }
    }
    choleskySolve(a, d, k);
    for (size_t i = 0; i < k; ++i)
        p[i] = prior[i] + d[i];
}

} // namespace linalg
} // namespace bolt
