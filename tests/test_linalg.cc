/**
 * @file
 * Unit and property tests for the linalg library: dense matrices,
 * one-sided Jacobi SVD, the ridge fold-in of a sparse row, and weighted
 * Pearson.
 */
#include <cmath>
#include <span>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/fold_in.h"
#include "linalg/svd.h"
#include "util/rng.h"

using namespace bolt::linalg;
using bolt::util::Rng;

namespace {

/** Random m x n matrix with entries in [lo, hi]. */
Matrix
randomMatrix(size_t m, size_t n, Rng& rng, double lo = 0.0,
             double hi = 100.0)
{
    Matrix out(m, n);
    for (size_t r = 0; r < m; ++r)
        for (size_t c = 0; c < n; ++c)
            out(r, c) = rng.uniform(lo, hi);
    return out;
}

/** Random rank-r matrix (product of two factors). */
Matrix
lowRankMatrix(size_t m, size_t n, size_t rank, Rng& rng)
{
    Matrix p = randomMatrix(m, rank, rng, 0.0, 1.0);
    Matrix q = randomMatrix(rank, n, rng, 0.0, 1.0);
    return p.multiply(q);
}

} // namespace

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m = {{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 6);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(Matrix({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowColSetAppend)
{
    Matrix m = {{1, 2, 3}, {0, 0, 0}};
    EXPECT_EQ(m.row(0), (std::vector<double>{1, 2, 3}));
    EXPECT_EQ(m.col(1), (std::vector<double>{2, 0}));
    m.appendRow({7, 8, 9});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_DOUBLE_EQ(m(2, 2), 9);
    EXPECT_THROW(m.appendRow({1}), std::invalid_argument);
}

TEST(Matrix, TransposeAndMultiply)
{
    Matrix a = {{1, 2}, {3, 4}};
    Matrix b = {{5, 6}, {7, 8}};
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
    Matrix at = a.transposed();
    EXPECT_DOUBLE_EQ(at(0, 1), 3);
    EXPECT_THROW(a.multiply(Matrix(3, 3)), std::invalid_argument);
}

TEST(Matrix, IdentityAndNorm)
{
    Matrix i3 = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i3.frobeniusNorm(), std::sqrt(3.0));
    Matrix a = {{3, 4}};
    EXPECT_DOUBLE_EQ(a.frobeniusNorm(), 5.0);
}

TEST(VectorOps, DotAndNorm)
{
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
    EXPECT_THROW(dot({1}, {1, 2}), std::invalid_argument);
}

TEST(WeightedPearson, PerfectCorrelation)
{
    std::vector<double> w(4, 1.0);
    std::vector<double> up = {1, 2, 3, 4};
    std::vector<double> doubled = {2, 4, 6, 8};
    std::vector<double> down = {8, 6, 4, 2};
    EXPECT_NEAR(weightedPearson(up, doubled, w), 1.0, 1e-12);
    EXPECT_NEAR(weightedPearson(up, down, w), -1.0, 1e-12);
}

TEST(WeightedPearson, ZeroVarianceIsZero)
{
    std::vector<double> w(3, 1.0);
    std::vector<double> flat = {5, 5, 5};
    std::vector<double> ramp = {1, 2, 3};
    std::vector<double> zero_w = {0, 0, 0};
    EXPECT_DOUBLE_EQ(weightedPearson(flat, ramp, w), 0.0);
    EXPECT_DOUBLE_EQ(weightedPearson(ramp, ramp, zero_w), 0.0);
}

TEST(WeightedPearson, WeightsChangeResult)
{
    // Heavily weighting the coordinates where the vectors agree must
    // raise the correlation.
    std::vector<double> a = {1, 2, 10};
    std::vector<double> b = {1, 2, -10};
    std::vector<double> w_uniform = {1, 1, 1};
    std::vector<double> w_skewed = {10, 10, 0.01};
    double uniform = weightedPearson(a, b, w_uniform);
    double skewed = weightedPearson(a, b, w_skewed);
    EXPECT_GT(skewed, uniform);
}

TEST(Svd, ReconstructsInput)
{
    Rng rng(101);
    std::vector<std::pair<size_t, size_t>> shapes = {
        {6, 4}, {10, 10}, {120, 10}, {3, 5}};
    for (auto [m, n] : shapes) {
        Matrix a = randomMatrix(m, n, rng);
        auto result = svd(a);
        EXPECT_LT(Matrix::maxAbsDiff(a, result.reconstruct()), 1e-6)
            << m << "x" << n;
    }
}

TEST(Svd, SingularValuesDecreasingAndNonNegative)
{
    Rng rng(102);
    Matrix a = randomMatrix(30, 8, rng);
    auto result = svd(a);
    for (size_t i = 0; i + 1 < result.s.size(); ++i) {
        EXPECT_GE(result.s[i], result.s[i + 1]);
        EXPECT_GE(result.s[i + 1], 0.0);
    }
}

TEST(Svd, OrthonormalFactors)
{
    Rng rng(103);
    Matrix a = randomMatrix(20, 6, rng);
    auto result = svd(a);
    Matrix utu = result.u.transposed().multiply(result.u);
    Matrix vtv = result.v.transposed().multiply(result.v);
    EXPECT_LT(Matrix::maxAbsDiff(utu, Matrix::identity(6)), 1e-8);
    EXPECT_LT(Matrix::maxAbsDiff(vtv, Matrix::identity(6)), 1e-8);
}

TEST(Svd, RankForEnergy)
{
    // A rank-2 matrix concentrates all energy in two singular values.
    Rng rng(104);
    Matrix a = lowRankMatrix(20, 8, 2, rng);
    auto result = svd(a);
    EXPECT_LE(result.rankForEnergy(0.999), 2u);
    EXPECT_EQ(result.rankForEnergy(1e-9), 1u);
}

TEST(Svd, TruncatedReconstructionErrorShrinks)
{
    Rng rng(105);
    Matrix a = randomMatrix(16, 6, rng);
    auto result = svd(a);
    double prev = 1e18;
    for (size_t r = 1; r <= 6; ++r) {
        Matrix approx = result.reconstructRank(r);
        double err = 0.0;
        for (size_t i = 0; i < a.rows(); ++i)
            for (size_t j = 0; j < a.cols(); ++j)
                err += std::pow(a(i, j) - approx(i, j), 2);
        EXPECT_LE(err, prev + 1e-9);
        prev = err;
    }
    EXPECT_NEAR(prev, 0.0, 1e-9);
}

TEST(Svd, ThrowsOnEmpty)
{
    EXPECT_THROW(svd(Matrix()), std::invalid_argument);
}

TEST(FoldIn, NoObservedEntriesReturnsPrior)
{
    Rng rng(201);
    Matrix q = randomMatrix(10, 4, rng, -1.0, 1.0);
    std::vector<double> prior = {0.3, -0.2, 0.05, 0.7};
    std::vector<double> p(4, 99.0);
    foldInRow(q, {}, {}, prior, 0.003, p);
    for (size_t k = 0; k < 4; ++k)
        EXPECT_EQ(prior[k], p[k]) << k;
}

TEST(FoldIn, RecoversRowInSpanOfQ)
{
    // A low-rank matrix's row is p_true . Q; observing any k or more of
    // its columns pins p_true, so with a vanishing ridge weight the
    // fold-in recovers the whole row, held-out columns included.
    Rng rng(202);
    for (size_t rep = 0; rep < 8; ++rep) {
        Matrix q = randomMatrix(10, 4, rng, -1.0, 1.0);
        std::vector<double> truth = {rng.uniform(-1.0, 1.0),
                                     rng.uniform(-1.0, 1.0),
                                     rng.uniform(-1.0, 1.0),
                                     rng.uniform(-1.0, 1.0)};
        std::vector<size_t> cols = {0, 2, 3, 5, 8};
        std::vector<double> values;
        for (size_t c : cols)
            values.push_back(dot(truth, q.row(c)));
        std::vector<double> prior(4, 0.25);
        std::vector<double> p(4);
        foldInRow(q, cols, values, prior, 1e-12, p);
        for (size_t c = 0; c < q.rows(); ++c)
            EXPECT_NEAR(dot(p, q.row(c)), dot(truth, q.row(c)), 1e-8)
                << "rep " << rep << " col " << c;
    }
}

TEST(FoldIn, SolvesTheRidgeNormalEquations)
{
    Rng rng(203);
    Matrix q = randomMatrix(10, 4, rng, -1.0, 1.0);
    std::vector<size_t> cols = {1, 4, 6};
    std::vector<double> values = {0.4, 0.9, 0.1};
    std::vector<double> prior = {0.2, -0.1, 0.3, 0.0};
    const double lambda = 0.01;
    std::vector<double> p(4);
    foldInRow(q, cols, values, prior, lambda, p);
    // (sum q q^T + lambda I) p == sum values q + lambda prior.
    for (size_t i = 0; i < 4; ++i) {
        double lhs = lambda * p[i];
        double rhs = lambda * prior[i];
        for (size_t e = 0; e < cols.size(); ++e) {
            lhs += q(cols[e], i) * dot(p, q.row(cols[e]));
            rhs += q(cols[e], i) * values[e];
        }
        EXPECT_NEAR(lhs, rhs, 1e-12) << i;
    }
}

TEST(FoldIn, RejectsBadInput)
{
    Matrix q(10, 4);
    std::vector<double> prior(4), p(4);
    std::vector<size_t> cols = {10};
    std::vector<double> values = {0.5};
    EXPECT_THROW(foldInRow(q, cols, values, prior, 0.01, p),
                 std::invalid_argument); // column out of range
    EXPECT_THROW(foldInRow(q, {}, {}, prior, 0.0, p),
                 std::invalid_argument); // no ridge: may be singular
    std::vector<double> short_p(3);
    EXPECT_THROW(foldInRow(q, {}, {}, prior, 0.01, short_p),
                 std::invalid_argument);
    // Cholesky refuses a matrix that is not positive definite.
    double a[4] = {1.0, 2.0, 2.0, 1.0};
    double b[2] = {1.0, 1.0};
    EXPECT_THROW(choleskySolve(a, b, 2), std::invalid_argument);
}

/** Property sweep: SVD must reconstruct matrices of many shapes. */
class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(SvdShapeTest, Reconstructs)
{
    auto [m, n] = GetParam();
    Rng rng(m * 100 + n);
    Matrix a = randomMatrix(m, n, rng, -50.0, 50.0);
    auto result = svd(a);
    EXPECT_LT(Matrix::maxAbsDiff(a, result.reconstruct()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{1, 5},
                      std::pair<size_t, size_t>{5, 1},
                      std::pair<size_t, size_t>{2, 2},
                      std::pair<size_t, size_t>{7, 3},
                      std::pair<size_t, size_t>{3, 7},
                      std::pair<size_t, size_t>{40, 10},
                      std::pair<size_t, size_t>{64, 8}));

TEST(Matrix, RowSpanAndRowPtrAliasRowData)
{
    Matrix m = {{1, 2, 3}, {4, 5, 6}};
    auto span = m.rowSpan(1);
    ASSERT_EQ(3u, span.size());
    EXPECT_EQ(4.0, span[0]);
    EXPECT_EQ(6.0, span[2]);
    // The span is a view, not a copy.
    m(1, 0) = 40.0;
    EXPECT_EQ(40.0, span[0]);
    EXPECT_EQ(m.rowPtr(1), span.data());
    auto copy = m.row(1);
    for (size_t c = 0; c < copy.size(); ++c)
        EXPECT_EQ(copy[c], span[c]);
}

TEST(WeightedPearson, SpanOverloadMatchesVectorOverload)
{
    Rng rng(311);
    Matrix m = randomMatrix(4, 10, rng);
    std::vector<double> w(10);
    for (auto& x : w)
        x = rng.uniform(0.1, 1.0);
    for (size_t r = 1; r < m.rows(); ++r) {
        double via_vectors = weightedPearson(m.row(0), m.row(r), w);
        double via_spans = weightedPearson(
            m.rowSpan(0), m.rowSpan(r), std::span<const double>(w));
        EXPECT_EQ(via_vectors, via_spans) << r;
    }
}

TEST(Svd, ReconstructRankMatchesNaiveTripleLoop)
{
    Rng rng(312);
    Matrix a = randomMatrix(12, 10, rng, -50.0, 50.0);
    auto s = svd(a);
    for (size_t rank : {size_t{1}, size_t{3}, s.s.size()}) {
        Matrix fast = s.reconstructRank(rank);
        // The pre-optimization accumulation: per-cell k-inner sums.
        Matrix naive(s.u.rows(), s.v.rows());
        for (size_t r = 0; r < s.u.rows(); ++r)
            for (size_t c = 0; c < s.v.rows(); ++c) {
                double acc = 0.0;
                for (size_t k = 0; k < rank; ++k)
                    acc += s.u(r, k) * s.s[k] * s.v(c, k);
                naive(r, c) = acc;
            }
        EXPECT_EQ(0.0, Matrix::maxAbsDiff(naive, fast)) << rank;
    }
}

