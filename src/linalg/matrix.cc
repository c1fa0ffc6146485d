#include "matrix.h"

#include <cmath>
#include <stdexcept>

namespace bolt {
namespace linalg {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

double&
Matrix::at(size_t r, size_t c)
{
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double
Matrix::at(size_t r, size_t c) const
{
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::row(size_t r) const
{
    if (r >= rows_)
        throw std::out_of_range("Matrix::row");
    return {data_.begin() + static_cast<long>(r * cols_),
            data_.begin() + static_cast<long>((r + 1) * cols_)};
}

std::vector<double>
Matrix::col(size_t c) const
{
    if (c >= cols_)
        throw std::out_of_range("Matrix::col");
    std::vector<double> out(rows_);
    for (size_t r = 0; r < rows_; ++r)
        out[r] = data_[r * cols_ + c];
    return out;
}

void
Matrix::appendRow(const std::vector<double>& values)
{
    if (rows_ == 0 && cols_ == 0)
        cols_ = values.size();
    if (values.size() != cols_)
        throw std::invalid_argument("Matrix::appendRow width mismatch");
    data_.insert(data_.end(), values.begin(), values.end());
    ++rows_;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (size_t r = 0; r < rows_; ++r)
        for (size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

Matrix
Matrix::multiply(const Matrix& other) const
{
    if (cols_ != other.rows_)
        throw std::invalid_argument("Matrix::multiply shape mismatch");
    Matrix out(rows_, other.cols_);
    for (size_t r = 0; r < rows_; ++r) {
        for (size_t k = 0; k < cols_; ++k) {
            double a = (*this)(r, k);
            if (a == 0.0)
                continue;
            for (size_t c = 0; c < other.cols_; ++c)
                out(r, c) += a * other(k, c);
        }
    }
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

double
Matrix::maxAbsDiff(const Matrix& a, const Matrix& b)
{
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_)
        throw std::invalid_argument("Matrix::maxAbsDiff shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < a.data_.size(); ++i)
        m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
    return m;
}

Matrix
Matrix::identity(size_t n)
{
    Matrix out(n, n);
    for (size_t i = 0; i < n; ++i)
        out(i, i) = 1.0;
    return out;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    if (a.size() != b.size())
        throw std::invalid_argument("dot: length mismatch");
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

double
norm(const std::vector<double>& a)
{
    return std::sqrt(dot(a, a));
}

double
weightedPearson(std::span<const double> a, std::span<const double> b,
                std::span<const double> weights)
{
    if (a.size() != b.size() || a.size() != weights.size())
        throw std::invalid_argument("weightedPearson: length mismatch");
    double wsum = 0.0;
    for (double w : weights)
        wsum += w;
    if (wsum <= 0.0)
        return 0.0;

    double ma = 0.0, mb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        ma += weights[i] * a[i];
        mb += weights[i] * b[i];
    }
    ma /= wsum;
    mb /= wsum;

    double cov = 0.0, va = 0.0, vb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        double da = a[i] - ma;
        double db = b[i] - mb;
        cov += weights[i] * da * db;
        va += weights[i] * da * da;
        vb += weights[i] * db * db;
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace linalg
} // namespace bolt
