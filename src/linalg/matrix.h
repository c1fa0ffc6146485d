#ifndef BOLT_LINALG_MATRIX_H
#define BOLT_LINALG_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace bolt {
namespace linalg {

/**
 * Dense row-major matrix of doubles.
 *
 * Sized for the recommender workloads in this project (hundreds of rows,
 * ~10 columns), so the implementation favors clarity over blocking/SIMD.
 */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    /** rows x cols matrix filled with `fill`. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    /** Construct from nested initializer lists (rows of equal width). */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    double& at(size_t r, size_t c);
    double at(size_t r, size_t c) const;

    double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Copy of row r as a vector. */
    std::vector<double> row(size_t r) const;

    /**
     * Zero-copy view of row r (rows are contiguous). Invalidated by any
     * operation that reshapes the matrix (appendRow, assignment).
     */
    std::span<const double> rowSpan(size_t r) const
    {
        return {data_.data() + r * cols_, cols_};
    }

    /** Raw pointer to row r (mutable); same validity as rowSpan. */
    double* rowPtr(size_t r) { return data_.data() + r * cols_; }
    const double* rowPtr(size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Copy of column c as a vector. */
    std::vector<double> col(size_t c) const;

    /** Append a row at the bottom; width must match (or set 0x0). */
    void appendRow(const std::vector<double>& values);

    /** Transposed copy. */
    Matrix transposed() const;

    /** Matrix product this * other. */
    Matrix multiply(const Matrix& other) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Max |a - b| over all entries; matrices must be the same shape. */
    static double maxAbsDiff(const Matrix& a, const Matrix& b);

    /** Identity matrix of size n. */
    static Matrix identity(size_t n);

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product of equal-length vectors. */
double dot(const std::vector<double>& a, const std::vector<double>& b);

/** Euclidean norm. */
double norm(const std::vector<double>& a);

/**
 * Weighted Pearson correlation (Eq. 1 of the paper).
 *
 * cov(a, b; w) = sum_i w_i (a_i - m(a;w)) (b_i - m(b;w)) / sum_i w_i with
 * weighted means m(.; w). Returns 0 when either side has zero weighted
 * variance (no information).
 *
 * The span form is the only form (std::vector converts implicitly;
 * pair it with Matrix::rowSpan in ranking loops to stay
 * allocation-free). The blocked one-query-against-every-entry form
 * lives in linalg/kernels.h (buildPearsonTable / pearsonRow) and is
 * bit-identical to calling this per entry.
 */
double weightedPearson(std::span<const double> a, std::span<const double> b,
                       std::span<const double> weights);

} // namespace linalg
} // namespace bolt

#endif // BOLT_LINALG_MATRIX_H
