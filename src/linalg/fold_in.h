#ifndef BOLT_LINALG_FOLD_IN_H
#define BOLT_LINALG_FOLD_IN_H

#include <cstddef>
#include <span>

#include "linalg/matrix.h"

namespace bolt {
namespace linalg {

/** Largest factor rank foldInRow accepts (its system lives on the stack). */
inline constexpr size_t kMaxFoldInRank = 16;

/**
 * Solve A x = b for a k x k symmetric positive-definite A by Cholesky
 * factorization, in place: `a` (row-major, only its lower triangle is
 * read) is overwritten with the factor L of A = L L^T and `b` with x.
 * Allocation-free.
 *
 * @throws std::invalid_argument if A is not positive definite.
 */
void choleskySolve(double* a, double* b, size_t k);

/**
 * Ridge fold-in of one partially observed row against fixed column
 * factors (the PQ-reconstruction of the paper's collaborative-filtering
 * stage, with Q held fixed): the exact minimizer
 *
 *   p = argmin  sum_i (values[i] - p . q_{cols[i]})^2
 *             + lambda * ||p - prior||^2,
 *
 * where q_c is row c of `q` and k = q.cols(). Writes p (k entries).
 * Solved in centred form, d = p - prior:
 *
 *   (sum_i q q^T + lambda I) d = sum_i (values[i] - q . prior) q,
 *
 * a k x k SPD system for any lambda > 0 and any number of observed
 * entries; with none, p is exactly `prior`.
 *
 * Requirements: cols[i] < q.rows(), values.size() == cols.size(),
 * prior.size() == p.size() == k <= kMaxFoldInRank, lambda > 0.
 */
void foldInRow(const Matrix& q, std::span<const size_t> cols,
               std::span<const double> values,
               std::span<const double> prior, double lambda,
               std::span<double> p);

} // namespace linalg
} // namespace bolt

#endif // BOLT_LINALG_FOLD_IN_H
