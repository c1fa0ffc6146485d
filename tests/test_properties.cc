/**
 * @file
 * Property-based tests: algebraic invariants of the numerical kernels
 * and the fault layer, each checked across a sweep of derived seeds
 * rather than at hand-picked points. A property that holds at 32+
 * random instances pins behavior far more tightly than a golden value:
 * it survives refactors that change rounding while still catching
 * algorithmic regressions.
 *
 * Seed discipline: every repetition derives its own counter-based
 * stream (util::Rng::stream(kSweepSeed, {case, rep})) so repetitions
 * are independent, reproducible, and cheap to bisect — a failure
 * message's rep index identifies the exact instance.
 */
#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/profile_table.h"
#include "core/profiler.h"
#include "core/recommender.h"
#include "core/training.h"
#include "fault/fault.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/fold_in.h"
#include "linalg/svd.h"
#include "util/rng.h"
#include "workloads/app.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

constexpr uint64_t kSweepSeed = 0x9e3779b97f4a7c15ull;
constexpr int kReps = 32;

/** Random m x n matrix with entries in [lo, hi). */
linalg::Matrix
randomMatrix(util::Rng& rng, size_t m, size_t n, double lo = 0.0,
             double hi = 100.0)
{
    linalg::Matrix a(m, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            a(i, j) = rng.uniform(lo, hi);
    return a;
}

double
frobeniusOfDiff(const linalg::Matrix& a, const linalg::Matrix& b)
{
    double sq = 0.0;
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j) {
            double d = a(i, j) - b(i, j);
            sq += d * d;
        }
    return std::sqrt(sq);
}

} // namespace

// ---------------------------------------------------------------------
// SVD: the rank-k truncation is the best rank-k approximation, so its
// reconstruction error must be non-increasing in k and (numerically)
// zero at full rank.
TEST(Properties, SvdRankKErrorMonotoneInRank)
{
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {1, rep});
        size_t m = 4 + rng.index(6); // 4..9 rows
        size_t n = 2 + rng.index(4); // 2..5 cols
        if (m < n)
            std::swap(m, n);
        linalg::Matrix a = randomMatrix(rng, m, n);
        linalg::SvdResult dec = linalg::svd(a);

        double prev = std::numeric_limits<double>::infinity();
        for (size_t k = 1; k <= n; ++k) {
            double err = frobeniusOfDiff(a, dec.reconstructRank(k));
            EXPECT_LE(err, prev + 1e-9)
                << "rep " << rep << ": error rose from rank " << k - 1
                << " to rank " << k;
            prev = err;
        }
        EXPECT_NEAR(prev, 0.0, 1e-6 * a.frobeniusNorm())
            << "rep " << rep << ": full-rank reconstruction not exact";
        // Eckart-Young cross-check: the rank-k error equals the energy
        // in the discarded singular values.
        size_t mid = n / 2 ? n / 2 : 1;
        double tail = 0.0;
        for (size_t i = mid; i < dec.s.size(); ++i)
            tail += dec.s[i] * dec.s[i];
        EXPECT_NEAR(frobeniusOfDiff(a, dec.reconstructRank(mid)),
                    std::sqrt(tail), 1e-6 * (1.0 + a.frobeniusNorm()))
            << "rep " << rep;
    }
}

// ---------------------------------------------------------------------
// Weighted Pearson (Eq. 1): symmetric in its arguments, and invariant
// under positive affine rescaling of either argument — correlation
// measures shape, not magnitude. (This is exactly why the recommender
// can match a load-scaled profile to its full-load training entry.)
TEST(Properties, WeightedPearsonSymmetricAndScaleInvariant)
{
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {2, rep});
        size_t n = 3 + rng.index(8); // 3..10 coordinates
        std::vector<double> a(n), b(n), w(n);
        for (size_t i = 0; i < n; ++i) {
            a[i] = rng.uniform(0.0, 100.0);
            b[i] = rng.uniform(0.0, 100.0);
            w[i] = rng.uniform(0.05, 1.0); // strictly positive weights
        }

        double ab = linalg::weightedPearson(a, b, w);
        double ba = linalg::weightedPearson(b, a, w);
        EXPECT_NEAR(ab, ba, 1e-12) << "rep " << rep << ": asymmetric";
        EXPECT_GE(ab, -1.0 - 1e-12) << "rep " << rep;
        EXPECT_LE(ab, 1.0 + 1e-12) << "rep " << rep;

        // Positive affine map of one side: r is unchanged.
        double alpha = rng.uniform(0.1, 5.0);
        double beta = rng.uniform(-20.0, 20.0);
        std::vector<double> a2(n);
        for (size_t i = 0; i < n; ++i)
            a2[i] = alpha * a[i] + beta;
        EXPECT_NEAR(linalg::weightedPearson(a2, b, w), ab, 1e-9)
            << "rep " << rep << ": not scale-invariant (alpha=" << alpha
            << ", beta=" << beta << ")";

        // Self-correlation is exactly 1 for non-constant vectors.
        EXPECT_NEAR(linalg::weightedPearson(a, a, w), 1.0, 1e-12)
            << "rep " << rep;
    }
}

// ---------------------------------------------------------------------
// Cholesky solve: on random symmetric positive-definite systems (B B^T
// plus a small ridge, the shape of the fold-in's normal equations) the
// solution satisfies A x = b to within 1e-12.
TEST(Properties, CholeskySolveResidualOnRandomSpdSystems)
{
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {3, rep});
        size_t k = 1 + rng.index(linalg::kMaxFoldInRank);
        linalg::Matrix b = randomMatrix(rng, k, k + 2, -1.0, 1.0);
        linalg::Matrix spd = b.multiply(b.transposed());
        for (size_t i = 0; i < k; ++i)
            spd(i, i) += 1e-3;
        std::vector<double> rhs(k);
        for (double& v : rhs)
            v = rng.uniform(-1.0, 1.0);

        linalg::Matrix factor = spd;
        std::vector<double> x = rhs;
        linalg::choleskySolve(factor.rowPtr(0), x.data(), k);
        for (size_t i = 0; i < k; ++i) {
            double ax = 0.0;
            for (size_t j = 0; j < k; ++j)
                ax += spd(i, j) * x[j];
            EXPECT_NEAR(ax, rhs[i], 1e-12) << "rep " << rep << " row " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Fault layer: sample masking is exact. Without an oracle the classifier
// is the identity for every reading; a zero-rate plan never perturbs a
// sample (the inertness contract); dropoutProb == 1 drops every sample;
// spiked readings stay clamped to [0, 100].
TEST(Properties, SampleFaultMaskingExactAndInert)
{
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {4, rep});

        core::HostEnvironment bare; // no oracle: identity
        fault::FaultPlan zero;      // all rates zero: still identity
        fault::HostFaults zero_faults(zero, /*root_seed=*/rep + 1,
                                      /*server=*/rep);
        core::HostEnvironment inert;
        inert.faults = &zero_faults;

        fault::FaultPlan drop_all;
        drop_all.dropoutProb = 1.0;
        fault::HostFaults dropper(drop_all, rep + 1, rep);
        core::HostEnvironment dropping;
        dropping.faults = &dropper;

        fault::FaultPlan spiky;
        spiky.spikeProb = 1.0;
        spiky.spikeMagnitude = rng.uniform(0.0, 80.0);
        fault::HostFaults spiker(spiky, rep + 1, rep);
        core::HostEnvironment spiking;
        spiking.faults = &spiker;

        for (int probe = 0; probe < 16; ++probe) {
            double reading = rng.uniform(0.0, 100.0);
            auto id1 = core::Profiler::applySampleFaults(bare, reading);
            ASSERT_TRUE(id1.has_value());
            EXPECT_EQ(*id1, reading) << "rep " << rep << ": no-oracle "
                                        "path is not the identity";
            auto id2 = core::Profiler::applySampleFaults(inert, reading);
            ASSERT_TRUE(id2.has_value());
            EXPECT_EQ(*id2, reading) << "rep " << rep << ": zero-rate "
                                        "plan perturbed a sample";
            EXPECT_FALSE(
                core::Profiler::applySampleFaults(dropping, reading)
                    .has_value())
                << "rep " << rep << ": dropoutProb=1 kept a sample";
            auto spiked =
                core::Profiler::applySampleFaults(spiking, reading);
            ASSERT_TRUE(spiked.has_value());
            EXPECT_GE(*spiked, 0.0) << "rep " << rep;
            EXPECT_LE(*spiked, 100.0) << "rep " << rep;
            EXPECT_GE(*spiked, reading - 1e-12)
                << "rep " << rep << ": spikes are additive, reading "
                                    "cannot decrease";
        }
    }
}

// ---------------------------------------------------------------------
// Fault oracle purity: every keyed question (jitter window, arrival,
// departure, phase flip) is a pure function of (plan, seed, server,
// coordinates) — two oracles built alike agree everywhere, in any query
// order, and the jitter factor is piecewise-constant on its windows.
TEST(Properties, FaultOracleIsPureAndWindowed)
{
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {5, rep});
        fault::FaultPlan plan;
        plan.arrivalProb = rng.uniform(0.1, 0.9);
        plan.departureProb = rng.uniform(0.1, 0.9);
        plan.phaseFlipProb = rng.uniform(0.1, 0.9);
        plan.capacityJitterAmp = rng.uniform(0.01, 0.5);
        plan.capacityJitterWindowSec = rng.uniform(5.0, 40.0);

        fault::HostFaults a(plan, rep + 7, rep % 5);
        fault::HostFaults b(plan, rep + 7, rep % 5);

        // Query b in reverse round order: answers must still agree.
        for (int round = 8; round >= 1; --round) {
            EXPECT_EQ(a.arrivalAt(round).fires,
                      b.arrivalAt(round).fires)
                << "rep " << rep << " round " << round;
            for (size_t v = 0; v < 4; ++v) {
                EXPECT_EQ(a.departureAt(round, v),
                          b.departureAt(round, v))
                    << "rep " << rep;
                double pa = -1.0, pb = -1.0;
                bool fa = a.phaseFlipAt(round, v, 60.0, &pa);
                bool fb = b.phaseFlipAt(round, v, 60.0, &pb);
                EXPECT_EQ(fa, fb) << "rep " << rep;
                if (fa) {
                    EXPECT_EQ(pa, pb) << "rep " << rep;
                }
            }
        }

        // Jitter: constant within a window, bounded by the amplitude.
        double w = plan.capacityJitterWindowSec;
        for (int k = 0; k < 6; ++k) {
            double t = k * w;
            double f0 = a.capacityFactor(t + 0.01 * w);
            double f1 = a.capacityFactor(t + 0.99 * w);
            EXPECT_EQ(f0, f1)
                << "rep " << rep << ": jitter varies within window " << k;
            EXPECT_GE(f0, 1.0 - plan.capacityJitterAmp) << "rep " << rep;
            EXPECT_LE(f0, 1.0 + plan.capacityJitterAmp) << "rep " << rep;
        }
    }
}

// ---------------------------------------------------------------------
// Decompose's prune bounds are conservative: for random anchor and
// candidate bases, targets and weights, neither the one-cell bound nor
// the level-cell grid bound ever exceeds the deviation widenFit returns
// at its fitted levels. This is what lets a pruned candidate skip its
// refit without changing the search's outcome. The grid bound, whose
// cells nest inside the one cell, is never looser.
TEST(Properties, PruneBoundsNeverExceedWidenFitDeviation)
{
    using Table = core::ScaledProfileTable;
    constexpr size_t K = Table::kLevelCells;
    constexpr size_t kCands = 13; // whole registers and a tail at 4 and 8 lanes
    const size_t padded = linalg::paddedCount(kCands);
    const double floor_ = workloads::kCapacityLoadFloor;
    auto predict = [&](double base, bool capacity, double level) {
        double scale = capacity ? std::max(level, floor_) : level;
        return std::clamp(base * scale, 0.0, 100.0);
    };
    size_t clamped = 0, below_floor = 0;
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {6, rep});
        const size_t n = 3 + rng.index(8); // 3..10 coordinates
        const bool core_shared = rng.uniform() < 0.5;
        std::vector<linalg::WidenCoord> wc(n);
        std::vector<double> anchor(n);
        std::vector<linalg::AlignedVector> cand(
            n, linalg::AlignedVector(padded, 0.0));
        double wsum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            wc[i].weight = rng.uniform(0.05, 1.0);
            wc[i].core = rng.uniform() < 0.25;
            wc[i].capacity = rng.uniform() < 0.4;
            anchor[i] = rng.uniform(0.0, 100.0);
            for (size_t e = 0; e < kCands; ++e)
                cand[i][e] = rng.uniform(0.0, 100.0);
            wsum += wc[i].weight;
        }
        // Even reps aim the targets near the anchor plus the first
        // candidate at random levels, so the bound gets close to the
        // fit; odd reps draw them uniformly.
        double la = rng.uniform(Table::kLevelMin, Table::kLevelMax);
        double lc = rng.uniform(Table::kLevelMin, Table::kLevelMax);
        for (size_t i = 0; i < n; ++i) {
            if (rep % 2 == 1) {
                wc[i].target = rng.uniform(0.0, 100.0);
                continue;
            }
            double a = predict(anchor[i], wc[i].capacity, la);
            double sum =
                wc[i].core ? (core_shared ? a : 0.0)
                           : std::min(a + predict(cand[i][0],
                                                  wc[i].capacity, lc),
                                      100.0);
            wc[i].target =
                std::clamp(sum + rng.gaussian(0.0, 2.0), 0.0, 100.0);
        }

        // Every lane extends the same anchor from level 0.8.
        std::vector<linalg::AlignedVector> anchor_cols;
        std::vector<const double*> cand_ptrs(n), anchor_ptrs(n);
        for (size_t i = 0; i < n; ++i) {
            cand_ptrs[i] = cand[i].data();
            anchor_cols.emplace_back(padded, anchor[i]);
        }
        for (size_t i = 0; i < n; ++i)
            anchor_ptrs[i] = anchor_cols[i].data();
        const linalg::AlignedVector init_levels(padded, 0.8);
        const double* init_ptr = init_levels.data();
        linalg::WidenSpec spec;
        spec.coords = wc.data();
        spec.coordCount = n;
        spec.partCount = 2;
        spec.fixedBase = anchor_ptrs.data();
        spec.candBase = cand_ptrs.data();
        spec.fixedInitLevels = &init_ptr;
        spec.coreShared = core_shared;
        spec.wsum = wsum;
        spec.lo = Table::kLevelMin;
        spec.hi = Table::kLevelMax;
        spec.capacityFloor = floor_;
        linalg::AlignedVector dist(padded), levels(padded * 2);
        linalg::widenFit(spec, kCands, dist.data(), levels.data());

        // The bounds over the table's grid: candidate edges as padded
        // columns, anchor edges as the base (zero on unshared cores).
        std::vector<linalg::AlignedVector> edge_cols;
        edge_cols.reserve(n * (K + 1));
        std::vector<linalg::PruneCoord> one(n), grid(n);
        for (size_t i = 0; i < n; ++i) {
            bool core = wc[i].core;
            for (linalg::PruneCoord* pc : {&one[i], &grid[i]}) {
                pc->additive = !core;
                pc->weight = wc[i].weight;
                pc->target = wc[i].target;
            }
            for (size_t k = 0; k <= K; ++k) {
                double level = Table::edgeLevel(k);
                grid[i].base[k] =
                    core && !core_shared
                        ? 0.0
                        : predict(anchor[i], wc[i].capacity, level);
                edge_cols.emplace_back(padded, 0.0);
                for (size_t e = 0; e < kCands; ++e)
                    edge_cols.back()[e] =
                        predict(cand[i][e], wc[i].capacity, level);
                grid[i].cand[k] = edge_cols.back().data();
            }
            one[i].base[0] = grid[i].base[0];
            one[i].base[1] = grid[i].base[K];
            one[i].cand[0] = grid[i].cand[0];
            one[i].cand[1] = grid[i].cand[K];
        }
        // Both bounds on every backend this CPU runs, against the
        // deviation of the backend the CPU picked (the two agree bit
        // for bit; tests/test_kernels.cc checks that).
        linalg::AlignedVector b1(padded), bk(padded);
        for (linalg::KernelBackend backend :
             {linalg::KernelBackend::Scalar, linalg::KernelBackend::Avx2,
              linalg::KernelBackend::Avx512}) {
            if (!linalg::kernelBackendAvailable(backend))
                continue;
            linalg::KernelBackend saved = linalg::activeKernelBackend();
            linalg::setKernelBackend(backend);
            linalg::pruneBounds(one.data(), n, 1, kCands, b1.data());
            linalg::pruneBounds(grid.data(), n, K, kCands, bk.data());
            linalg::setKernelBackend(saved);
            for (size_t e = 0; e < kCands; ++e) {
                SCOPED_TRACE(::testing::Message()
                             << "rep " << rep << " e " << e << " backend "
                             << static_cast<int>(backend));
                EXPECT_LE(b1[e] / wsum, dist[e]);
                EXPECT_LE(bk[e] / wsum, dist[e]);
                EXPECT_LE(b1[e], bk[e]);
            }
        }

        for (size_t e = 0; e < kCands; ++e) {
            // Coverage: sums clamped at 100 and capacity coordinates
            // held at the load floor, at the fitted levels.
            double l0 = levels[e * 2], l1 = levels[e * 2 + 1];
            bool any_clamped = false, any_floor = false;
            for (size_t i = 0; i < n; ++i) {
                if (wc[i].core)
                    continue;
                any_clamped = any_clamped ||
                              predict(anchor[i], wc[i].capacity, l0) +
                                      predict(cand[i][e], wc[i].capacity,
                                              l1) >
                                  100.0;
                any_floor = any_floor || (wc[i].capacity &&
                                          std::min(l0, l1) < floor_);
            }
            clamped += any_clamped;
            below_floor += any_floor;
        }
    }
    EXPECT_GT(clamped, 0u);
    EXPECT_GT(below_floor, 0u);
}

// ---------------------------------------------------------------------
// decompose()'s pruned, queued search returns exactly what a greedy
// search without any pruning returns. The reference below keeps
// decompose()'s shortlist, anchors, fold order and Occam rule, but
// refits every candidate of every anchor through linalg::widenFit.
// Parts, levels and distance must match bit for bit under each backend
// the CPU runs: the one-cell and grid bounds, the Occam cap on the
// incumbent and the refit queue, which spans a depth's anchors, may
// only skip work.

namespace {

/** decompose() with every candidate refit and folded in order. */
core::Decomposition
unprunedDecompose(const core::TrainingSet& training,
                  const core::ScaledProfileTable& table,
                  const sim::ResourceVector& weights,
                  const core::SparseObservation& obs, bool core_shared,
                  size_t max_parts, size_t prune)
{
    using Table = core::ScaledProfileTable;
    const size_t m = training.size();
    const size_t padded = linalg::paddedCount(m);

    // The observed coordinates in resource order, with the weight sums
    // accumulated in that order.
    std::vector<size_t> idx;
    std::vector<double> val, w;
    double wsum = 0.0, core_wsum = 0.0;
    for (size_t c = 0; c < sim::kNumResources; ++c) {
        auto r = static_cast<sim::Resource>(c);
        if (!obs.has(r))
            continue;
        idx.push_back(c);
        val.push_back(obs.get(r));
        w.push_back(weights.at(c));
        wsum += weights.at(c);
        if (sim::isCoreResource(r))
            core_wsum += weights.at(c);
    }
    const size_t n = idx.size();
    auto is_core = [&](size_t i) {
        return sim::isCoreResource(static_cast<sim::Resource>(idx[i]));
    };
    auto is_capacity = [&](size_t i) {
        return sim::isCapacityResource(static_cast<sim::Resource>(idx[i]));
    };

    // Shortlist and solo fit: on the core coordinates alone when a core
    // is shared, else on the solo fit's scores.
    linalg::AlignedVector levels(padded), scores(padded);
    auto fit = [&](const std::vector<linalg::FitCoord>& fc, double fwsum) {
        linalg::FitSpec spec;
        spec.coords = fc.data();
        spec.coordCount = fc.size();
        spec.iters = 12;
        spec.lo = Table::kLevelMin;
        spec.hi = Table::kLevelMax;
        spec.capacityFloor = workloads::kCapacityLoadFloor;
        spec.fitWsum = fwsum;
        spec.scoreWsum = fwsum;
        linalg::fitLevelsAndScore(spec, m, levels.data(), scores.data());
    };
    std::vector<std::pair<double, size_t>> shortlist;
    if (core_shared) {
        std::vector<linalg::FitCoord> fc;
        for (size_t i = 0; i < n; ++i)
            if (is_core(i))
                fc.push_back({table.baseCol(idx[i]), w[i], val[i],
                              linalg::DevMode::Abs, is_capacity(i)});
        fit(fc, core_wsum);
        for (size_t e = 0; e < m; ++e)
            shortlist.emplace_back(scores[e], e);
    }
    std::vector<linalg::FitCoord> solo;
    for (size_t i = 0; i < n; ++i)
        solo.push_back({table.baseCol(idx[i]), w[i], val[i],
                        is_core(i) && !core_shared ? linalg::DevMode::Zero
                                                   : linalg::DevMode::Abs,
                        is_capacity(i)});
    fit(solo, wsum);
    if (!core_shared)
        for (size_t e = 0; e < m; ++e)
            shortlist.emplace_back(scores[e], e);
    std::sort(shortlist.begin(), shortlist.end());
    const size_t k0 = std::min(prune, m);

    core::Decomposition best;
    best.distance = 1e9;
    for (size_t e = 0; e < m; ++e) {
        if (scores[e] < best.distance) {
            best.distance = scores[e];
            best.parts = {{e, levels[e]}};
        }
    }

    std::vector<linalg::WidenCoord> wc(n);
    std::vector<const double*> cand(n);
    for (size_t i = 0; i < n; ++i) {
        wc[i] = {w[i], val[i], is_core(i), is_capacity(i)};
        cand[i] = table.baseCol(idx[i]);
    }
    linalg::AlignedVector dist(padded), fitted(padded * max_parts);
    for (size_t depth = 2; depth <= max_parts; ++depth) {
        double improved = best.distance;
        std::vector<core::DecompositionPart> improved_parts = best.parts;
        bool found = false;
        for (size_t s0 = 0; s0 < k0; ++s0) {
            std::vector<core::DecompositionPart> base;
            if (depth == 2) {
                base = {{shortlist[s0].second, 0.8}};
            } else {
                if (s0 >= 4 || (s0 > 0 && !core_shared))
                    break;
                base = best.parts;
                if (s0 > 0)
                    base[0] = {shortlist[s0].second, 0.8};
            }
            if (!(wsum > 0.0))
                continue;
            // Every lane extends this anchor's base parts.
            const size_t parts = base.size() + 1;
            std::vector<linalg::AlignedVector> fixed_cols, level_cols;
            for (const auto& part : base) {
                level_cols.emplace_back(padded, part.level);
                for (size_t i = 0; i < n; ++i)
                    fixed_cols.emplace_back(
                        padded, table.baseCol(idx[i])[part.index]);
            }
            std::vector<const double*> fixed_base, fixed_levels;
            for (const auto& col : fixed_cols)
                fixed_base.push_back(col.data());
            for (const auto& col : level_cols)
                fixed_levels.push_back(col.data());
            linalg::WidenSpec spec;
            spec.coords = wc.data();
            spec.coordCount = n;
            spec.partCount = parts;
            spec.fixedBase = fixed_base.data();
            spec.candBase = cand.data();
            spec.fixedInitLevels = fixed_levels.data();
            spec.candInitLevel = 0.8;
            spec.coreShared = core_shared;
            spec.wsum = wsum;
            spec.rounds = 2;
            spec.iters = 12;
            spec.lo = Table::kLevelMin;
            spec.hi = Table::kLevelMax;
            spec.capacityFloor = workloads::kCapacityLoadFloor;
            linalg::widenFit(spec, m, dist.data(), fitted.data());
            for (size_t e = 0; e < m; ++e) {
                if (dist[e] < improved) {
                    improved = dist[e];
                    found = true;
                    improved_parts.clear();
                    for (size_t p = 0; p + 1 < parts; ++p)
                        improved_parts.push_back(
                            {base[p].index, fitted[e * parts + p]});
                    improved_parts.push_back(
                        {e, fitted[e * parts + parts - 1]});
                }
            }
        }
        if (!found || improved > best.distance * 0.88 ||
            best.distance - improved < 0.7)
            break;
        best.distance = improved;
        best.parts = improved_parts;
    }
    return best;
}

} // namespace

TEST(Properties, DecomposeMatchesUnprunedSearch)
{
    util::Rng root(4242);
    util::Rng tr = root.substream("train");
    auto specs = workloads::trainingSet(tr);
    const core::TrainingSet training =
        core::TrainingSet::fromSpecs(specs, tr);
    const core::HybridRecommender rec(training);
    const core::ScaledProfileTable table(training);
    const sim::ResourceVector weights = rec.resourceImportance();
    const size_t m = training.size();

    size_t widened = 0, deep = 0;
    for (uint64_t rep = 0; rep < kReps; ++rep) {
        util::Rng rng = util::Rng::stream(kSweepSeed, {7, rep});
        // A 2-5-tenant aggregate at random loads plus noise: uncore
        // coordinates sum the tenants (clamped at 100), core ones carry
        // the first tenant's pressure when a core is shared. Unshared
        // cores carry a reading no part explains, which adds the same
        // constant to every candidate's bound and distance; that is
        // where capping the incumbent at the Occam threshold prunes
        // most. About one coordinate in five goes unobserved.
        const bool core_shared = rep % 2 == 0;
        const size_t max_parts = 2 + (rep / 2) % 4;
        const size_t tenants = 2 + rng.index(4);
        sim::ResourceVector core_part, sum;
        for (size_t t = 0; t < tenants; ++t) {
            sim::ResourceVector p = workloads::scaledPressure(
                training.entry(rng.index(m)).fullLoadBase,
                rng.uniform(0.3, 1.0));
            if (t == 0)
                core_part = p;
            sum += p;
        }
        const double noise = rng.uniform(0.3, 2.0);
        core::SparseObservation obs;
        for (sim::Resource r : sim::kAllResources) {
            if (rng.uniform() < 0.2)
                continue;
            double v = !sim::isCoreResource(r) ? std::min(sum[r], 100.0)
                       : core_shared           ? core_part[r]
                                               : rng.uniform(0.0, 100.0);
            obs.set(r, std::clamp(v + rng.gaussian(0.0, noise), 0.0, 100.0));
        }

        for (linalg::KernelBackend backend :
             {linalg::KernelBackend::Scalar, linalg::KernelBackend::Avx2,
              linalg::KernelBackend::Avx512}) {
            if (!linalg::kernelBackendAvailable(backend))
                continue;
            linalg::KernelBackend saved = linalg::activeKernelBackend();
            linalg::setKernelBackend(backend);
            core::Decomposition got =
                rec.decompose(obs, core_shared, max_parts);
            core::Decomposition want = unprunedDecompose(
                training, table, weights, obs, core_shared, max_parts, 24);
            linalg::setKernelBackend(saved);

            SCOPED_TRACE(::testing::Message()
                         << "rep " << rep << " backend "
                         << static_cast<int>(backend) << " core_shared "
                         << core_shared << " max_parts " << max_parts
                         << " tenants " << tenants);
            ASSERT_EQ(got.parts.size(), want.parts.size());
            for (size_t k = 0; k < got.parts.size(); ++k) {
                EXPECT_EQ(got.parts[k].index, want.parts[k].index);
                EXPECT_EQ(std::bit_cast<uint64_t>(got.parts[k].level),
                          std::bit_cast<uint64_t>(want.parts[k].level));
            }
            EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
                      std::bit_cast<uint64_t>(want.distance));
            widened += got.parts.size() >= 2;
            deep += got.parts.size() >= 3;
        }
    }
    // Coverage: searches that took a second part, and ones that took a
    // third.
    EXPECT_GT(widened, 0u);
    EXPECT_GT(deep, 0u);
}
