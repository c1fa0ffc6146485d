/**
 * @file
 * Unit and property tests for the Bolt core: microbenchmarks, sparse
 * observations, the training set, the hybrid recommender (analysis and
 * additive decomposition), the profiler and the detector.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/detector.h"
#include "core/profile_table.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "sim/cluster.h"
#include "util/digest.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;
using namespace bolt::core;

namespace {

/** Shared fixture: a trained recommender (expensive, built once). */
class TrainedFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rng_ = new util::Rng(4242);
        util::Rng tr = rng_->substream("train");
        auto specs = workloads::trainingSet(tr);
        training_ = new TrainingSet(TrainingSet::fromSpecs(specs, tr));
        recommender_ = new HybridRecommender(*training_);
    }
    static void
    TearDownTestSuite()
    {
        delete recommender_;
        delete training_;
        delete rng_;
        recommender_ = nullptr;
        training_ = nullptr;
        rng_ = nullptr;
    }

    static util::Rng* rng_;
    static TrainingSet* training_;
    static HybridRecommender* recommender_;
};

util::Rng* TrainedFixture::rng_ = nullptr;
TrainingSet* TrainedFixture::training_ = nullptr;
HybridRecommender* TrainedFixture::recommender_ = nullptr;

/** A one-host environment with the given victims and a 4-vCPU probe. */
struct MiniHost
{
    sim::Cluster cluster{1};
    sim::Tenant adversary;
    std::vector<sim::TenantId> victims;
    std::map<sim::TenantId, workloads::AppInstance> instances;
    sim::ContentionModel contention{
        sim::IsolationConfig::none(sim::Platform::VirtualMachine)};

    explicit MiniHost(const std::vector<workloads::AppSpec>& specs,
                      util::Rng rng)
    {
        adversary = {cluster.nextTenantId(), 4, true};
        cluster.placeOn(0, adversary);
        int i = 0;
        for (const auto& spec : specs) {
            sim::Tenant t{cluster.nextTenantId(), spec.vcpus, false};
            cluster.placeOn(0, t);
            victims.push_back(t.id);
            instances.emplace(
                t.id,
                workloads::AppInstance(spec, rng.substream("v", i++)));
        }
    }

    HostEnvironment
    env()
    {
        HostEnvironment e;
        e.server = &cluster.server(0);
        e.adversary = adversary.id;
        e.contention = &contention;
        e.pressureAt = [this](double t) {
            sim::PressureMap pm;
            for (auto id : victims)
                pm[id] = instances.at(id).pressureAt(t);
            return pm;
        };
        return e;
    }
};

workloads::AppSpec
steadySpec(const char* family, const char* variant, util::Rng& rng,
           double level = 0.9, int vcpus = 2)
{
    const auto* f = workloads::findFamily(family);
    const workloads::VariantDef* v = &f->variants[0];
    for (const auto& cand : f->variants)
        if (cand.name == variant)
            v = &cand;
    auto spec = workloads::instantiate(*f, *v, "M", rng);
    spec.pattern = workloads::LoadPattern::constant(level);
    spec.vcpus = vcpus;
    return spec;
}

} // namespace

TEST(Microbenchmark, ReportsPressureAccuratelyWithoutNoise)
{
    util::Rng rng(1);
    for (double pressure : {0.0, 20.0, 45.0, 80.0}) {
        double ci = Microbenchmark::measure(pressure, 0.0, rng);
        EXPECT_NEAR(ci, pressure, Microbenchmark::kStepPercent + 1e-9)
            << pressure;
    }
}

TEST(Microbenchmark, MonotoneInPressure)
{
    util::Rng rng(2);
    double prev = -1.0;
    for (double pressure = 0.0; pressure <= 100.0; pressure += 10.0) {
        double ci = Microbenchmark::measure(pressure, 0.0, rng);
        EXPECT_GE(ci, prev - 1e-9);
        prev = ci;
    }
}

TEST(Microbenchmark, SmallVmCannotSeeLowPressure)
{
    // Fig. 10b: an adversarial VM below 4 vCPUs cannot generate enough
    // contention; with half intensity, only pressure above ~50% shows.
    util::Rng rng(3);
    EXPECT_DOUBLE_EQ(Microbenchmark::measure(30.0, 0.0, rng, 0.5), 0.0);
    EXPECT_GT(Microbenchmark::measure(80.0, 0.0, rng, 0.5), 0.0);
}

TEST(Microbenchmark, RampDuration)
{
    // Low pressure -> long ramp; high pressure -> quick detection.
    EXPECT_GT(Microbenchmark::rampDurationSec(0.0),
              Microbenchmark::rampDurationSec(90.0));
    EXPECT_LE(Microbenchmark::rampDurationSec(0.0), 2.0);
}

TEST(Observation, BasicOps)
{
    SparseObservation obs;
    EXPECT_EQ(obs.observedCount(), 0u);
    obs.set(sim::Resource::LLC, 40.0);
    obs.set(sim::Resource::NetBw, 20.0, SparseObservation::Bound::Upper);
    EXPECT_EQ(obs.observedCount(), 2u);
    EXPECT_TRUE(obs.isExact(sim::Resource::LLC));
    EXPECT_FALSE(obs.isExact(sim::Resource::NetBw));
}

TEST(Observation, MinusAndMerge)
{
    SparseObservation obs;
    obs.set(sim::Resource::LLC, 50.0);
    obs.set(sim::Resource::MemBw, 10.0);

    SparseObservation older;
    older.set(sim::Resource::DiskBw, 33.0);
    older.set(sim::Resource::LLC, 99.0); // must not override fresh
    obs.mergeFrom(older);
    EXPECT_DOUBLE_EQ(obs.get(sim::Resource::DiskBw), 33.0);
    EXPECT_DOUBLE_EQ(obs.get(sim::Resource::LLC), 50.0);

    auto exact = obs.allExact();
    for (sim::Resource r : sim::kAllResources) {
        if (exact.has(r)) {
            EXPECT_TRUE(exact.isExact(r));
        }
    }
}

TEST_F(TrainedFixture, TrainingSetWellFormed)
{
    EXPECT_EQ(training_->size(), 120u);
    auto m = training_->matrix();
    EXPECT_EQ(m.rows(), 120u);
    EXPECT_EQ(m.cols(), sim::kNumResources);
    for (const auto& e : training_->entries()) {
        EXPECT_GT(e.profiledLevel, 0.0);
        for (sim::Resource r : sim::kAllResources) {
            EXPECT_GE(e.profile[r], 0.0);
            EXPECT_LE(e.profile[r], 100.0);
        }
    }
}

TEST_F(TrainedFixture, ResourceImportanceNormalized)
{
    auto importance = recommender_->resourceImportance();
    EXPECT_NEAR(importance.total(), 1.0, 1e-9);
    // The caches carry detection value (the paper's system insight):
    // L1-i must rank above L2, which barely discriminates.
    EXPECT_GT(importance[sim::Resource::L1I],
              importance[sim::Resource::L2]);
}

TEST_F(TrainedFixture, ConceptsKeepNinetyPercentEnergy)
{
    size_t r = recommender_->conceptsKept();
    const auto& s = recommender_->singularValues();
    double total = 0.0, kept = 0.0;
    for (size_t i = 0; i < s.size(); ++i) {
        total += s[i] * s[i];
        if (i < r)
            kept += s[i] * s[i];
    }
    EXPECT_GE(kept / total, 0.90);
    if (r > 1) {
        double without = kept - s[r - 1] * s[r - 1];
        EXPECT_LT(without / total, 0.90);
    }
}

TEST_F(TrainedFixture, SelfProfileMatchesItsClass)
{
    // Feeding a training entry's own full profile must rank its class
    // first with a decisive margin.
    const auto& entry = training_->entry(5);
    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, entry.profile[r]);
    auto result = recommender_->analyze(obs);
    ASSERT_FALSE(result.ranking.empty());
    EXPECT_EQ(training_->entry(result.ranking.front().first).classLabel(),
              entry.classLabel());
    EXPECT_GT(result.topScore(), 0.5);
}

TEST_F(TrainedFixture, ReconstructionTrustsExactCoordinates)
{
    SparseObservation obs;
    obs.set(sim::Resource::LLC, 63.0);
    obs.set(sim::Resource::NetBw, 55.0);
    obs.set(sim::Resource::L1I, 72.0);
    auto result = recommender_->analyze(obs);
    EXPECT_DOUBLE_EQ(result.reconstructed[sim::Resource::LLC], 63.0);
    EXPECT_DOUBLE_EQ(result.reconstructed[sim::Resource::NetBw], 55.0);
    for (sim::Resource r : sim::kAllResources) {
        EXPECT_GE(result.reconstructed[r], 0.0);
        EXPECT_LE(result.reconstructed[r], 100.0);
    }
}

TEST_F(TrainedFixture, FoldInBeatsCentroidOnHeldOutCoordinates)
{
    // Complete each training row from its `exact` top-weight coordinates
    // and score the held-out ones against the row's truth. An Upper
    // bound of 100 on every held-out coordinate caps nothing and keeps
    // feature augmentation off it, so reconstructed[] there is the CF
    // completion itself. With no Exact entry the completion is the
    // centroid row. An over-fitting ridge weight loses to the centroid
    // at some prefix size; one that collapsed the fold-in onto its prior
    // would tie it everywhere.
    auto importance = recommender_->resourceImportance();
    std::vector<sim::Resource> order(sim::kAllResources.begin(),
                                     sim::kAllResources.end());
    std::stable_sort(order.begin(), order.end(),
                     [&](sim::Resource x, sim::Resource y) {
                         return importance[x] > importance[y];
                     });
    SparseObservation bounds;
    for (sim::Resource r : order)
        bounds.set(r, 100.0, SparseObservation::Bound::Upper);
    auto centroid = recommender_->analyze(bounds).reconstructed;

    double fold_total = 0.0;
    double centroid_total = 0.0;
    for (size_t exact = 1; exact < order.size(); ++exact) {
        double fold_err = 0.0;
        double centroid_err = 0.0;
        for (const auto& entry : training_->entries()) {
            SparseObservation obs = bounds;
            for (size_t i = 0; i < exact; ++i)
                obs.set(order[i], entry.profile[order[i]]);
            auto completed = recommender_->analyze(obs).reconstructed;
            for (size_t i = exact; i < order.size(); ++i) {
                double truth = entry.profile[order[i]];
                fold_err += std::abs(completed[order[i]] - truth);
                centroid_err += std::abs(centroid[order[i]] - truth);
            }
        }
        EXPECT_LT(fold_err, centroid_err) << exact << " Exact coordinates";
        fold_total += fold_err;
        centroid_total += centroid_err;
    }
    EXPECT_LT(fold_total, 0.9 * centroid_total)
        << "fold-in " << fold_total << " vs centroid " << centroid_total;
}

TEST_F(TrainedFixture, DistributionNormalized)
{
    const auto& entry = training_->entry(20);
    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, entry.profile[r]);
    auto result = recommender_->analyze(obs);
    ASSERT_FALSE(result.distribution.empty());
    double total = 0.0;
    for (const auto& [label, share] : result.distribution) {
        EXPECT_GT(share, 0.0);
        total += share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Distinct classes only.
    for (size_t i = 0; i < result.distribution.size(); ++i)
        for (size_t j = i + 1; j < result.distribution.size(); ++j)
            EXPECT_NE(result.distribution[i].first,
                      result.distribution[j].first);
}

TEST_F(TrainedFixture, DecomposeSingleTenantYieldsOnePart)
{
    const auto& entry = training_->entry(10);
    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, workloads::scaledPressure(entry.fullLoadBase, 0.8)[r]);
    auto decomp = recommender_->decompose(obs, true, 3);
    ASSERT_GE(decomp.parts.size(), 1u);
    EXPECT_EQ(decomp.parts.size(), 1u);
    EXPECT_EQ(training_->entry(decomp.parts[0].index).classLabel(),
              entry.classLabel());
    EXPECT_NEAR(decomp.parts[0].level, 0.8, 0.15);
    EXPECT_GT(decomp.score, 0.3);
}

TEST_F(TrainedFixture, DecomposeSeparatesTwoTenants)
{
    // Aggregate uncore = sum of two apps; core coords from one of them.
    // memcached (zero disk, cache-heavy) plus hadoop:sort (disk-heavy)
    // are far apart in profile space, so the decomposition must find
    // both families; the confusable neighbors (e.g. spark vs graphX)
    // are covered by the statistical integration tests instead.
    const TrainingSet::Entry* mem = nullptr;
    const TrainingSet::Entry* sort = nullptr;
    for (const auto& e : training_->entries()) {
        if (!mem && e.family == "memcached" && e.profiledLevel > 0.7)
            mem = &e;
        if (!sort && e.classLabel() == "hadoop:sort" &&
            e.profiledLevel > 0.7)
            sort = &e;
    }
    ASSERT_NE(mem, nullptr);
    ASSERT_NE(sort, nullptr);

    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources) {
        if (sim::isCoreResource(r)) {
            obs.set(r, mem->profile[r]); // sibling channel: memcached
        } else {
            obs.set(r, std::min(100.0,
                                mem->profile[r] + sort->profile[r]));
        }
    }
    auto decomp = recommender_->decompose(obs, true, 3);
    ASSERT_GE(decomp.parts.size(), 2u);
    std::set<std::string> families;
    for (const auto& p : decomp.parts)
        families.insert(training_->entry(p.index).family);
    EXPECT_TRUE(families.count("memcached"));
    EXPECT_TRUE(families.count("hadoop"));
}

TEST_F(TrainedFixture, ProfilerRoundShape)
{
    util::Rng rng(77);
    auto spec = steadySpec("memcached", "rd-heavy", rng, 0.9, 2);
    MiniHost host({spec}, rng.substream("host"));
    Profiler profiler;
    auto env = host.env();
    auto round = profiler.profile(env, 0.0, rng);
    // Default round: one core probe + one uncore (+1 extra when the
    // core reads zero).
    EXPECT_GE(round.benchmarksRun, 2);
    EXPECT_LE(round.benchmarksRun, 3);
    EXPECT_GE(round.observation.observedCount(), 2u);
    EXPECT_GT(round.durationSec, 0.5);
    EXPECT_LT(round.durationSec, 6.0);
    EXPECT_GE(round.focusCore, 0);
}

TEST_F(TrainedFixture, ProfilerShutterReturnsUncoreOnly)
{
    util::Rng rng(78);
    auto spec = steadySpec("mysql", "oltp", rng, 0.8, 2);
    MiniHost host({spec}, rng.substream("host"));
    Profiler profiler;
    auto env = host.env();
    auto round = profiler.shutterProfile(env, 0.0, rng);
    for (sim::Resource r : sim::kCoreResources)
        EXPECT_FALSE(round.observation.has(r));
    for (sim::Resource r : sim::kUncoreResources)
        EXPECT_TRUE(round.observation.has(r));
    EXPECT_LT(round.durationSec, 2.0);
}

TEST_F(TrainedFixture, EnvironmentHelpers)
{
    util::Rng rng(79);
    auto spec = steadySpec("cassandra", "read", rng, 0.9, 3);
    MiniHost host({spec}, rng.substream("host"));
    auto env = host.env();
    EXPECT_EQ(env.adversaryCores().size(), 4u);
    auto ext = env.visibleExternal(1.0);
    EXPECT_GT(ext.total(), 0.0);
}

TEST_F(TrainedFixture, DetectorIdentifiesSteadySingleVictim)
{
    util::Rng rng(80);
    auto spec = steadySpec("spark", "kmeans", rng, 0.9, 4);
    MiniHost host({spec}, rng.substream("host"));
    Detector detector(*recommender_);
    auto env = host.env();
    util::Rng drng = rng.substream("detect");
    // The experiment's protocol: a round every kProfilingIntervalSec
    // until the victim's exact class is among the guesses.
    const int cap = DetectorConfig{}.maxIterations;
    bool found = false;
    int rounds = 0;
    while (!found && rounds < cap) {
        DetectionRound round = detector.detectOnce(
            env, rounds * kProfilingIntervalSec, drng, nullptr, rounds);
        ++rounds;
        for (const auto& g : round.guesses)
            found = found || g.classLabel == spec.classLabel();
    }
    EXPECT_TRUE(found) << "victim " << spec.classLabel()
                       << " not identified in " << rounds << " rounds";
}

TEST_F(TrainedFixture, DetectorReportsResourceCharacteristics)
{
    util::Rng rng(81);
    auto spec = steadySpec("memcached", "rd-heavy", rng, 0.9, 2);
    MiniHost host({spec}, rng.substream("host"));
    Detector detector(*recommender_);
    auto env = host.env();
    util::Rng drng = rng.substream("detect");
    auto round = detector.detectOnce(env, 0.0, drng);
    ASSERT_FALSE(round.guesses.empty());
    // The recovered profile must expose memcached's cache signature:
    // the dominant resources include L1-i or LLC.
    auto order = round.guesses.front().profile.byDecreasingPressure();
    bool cache_on_top = order[0] == sim::Resource::L1I ||
                        order[0] == sim::Resource::LLC ||
                        order[1] == sim::Resource::L1I ||
                        order[1] == sim::Resource::LLC;
    EXPECT_TRUE(cache_on_top);
}

TEST_F(TrainedFixture, RoundMatchHelpers)
{
    util::Rng rng(83);
    auto spec = steadySpec("memcached", "rd-heavy", rng, 0.9, 2);
    DetectionRound round;
    CoResidentGuess guess;
    guess.classLabel = "memcached:rd-heavy";
    guess.profile = spec.base;
    round.guesses.push_back(guess);
    EXPECT_TRUE(roundMatchesClass(round, spec));
    EXPECT_TRUE(roundMatchesCharacteristics(round, spec));

    DetectionRound wrong;
    CoResidentGuess other;
    other.classLabel = "hadoop:sort";
    other.profile = workloads::findFamily("hadoop")->variants[5].base;
    wrong.guesses.push_back(other);
    EXPECT_FALSE(roundMatchesClass(wrong, spec));
}

/** Property sweep: microbenchmark accuracy across every resource. The
 *  ramp is the same for each; the parameter picks its noise stream. */
class ProbeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(ProbeSweep, MeasuresEveryResource)
{
    util::Rng rng(900 + GetParam());
    double ci = Microbenchmark::measure(60.0, 0.0, rng);
    EXPECT_NEAR(ci, 60.0, Microbenchmark::kStepPercent + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllResources, ProbeSweep,
                         ::testing::Range(0, 10));

TEST_F(TrainedFixture, TrainingMatrixAndLabelsAreCachedConsistently)
{
    // matrix() returns the same cached object on every call.
    const linalg::Matrix& m1 = training_->matrix();
    const linalg::Matrix& m2 = training_->matrix();
    EXPECT_EQ(&m1, &m2);
    ASSERT_EQ(training_->size(), m1.rows());
    for (size_t i = 0; i < training_->size(); ++i) {
        const auto& e = training_->entry(i);
        auto profile = e.profile.toVector();
        for (size_t c = 0; c < sim::kNumResources; ++c)
            EXPECT_EQ(profile[c], m1(i, c)) << i;
        // The interned id names the entry's class.
        EXPECT_EQ(training_->className(training_->classIdOf(i)),
                  e.classLabel())
            << i;
    }
}

TEST_F(TrainedFixture, ScaledProfileTableMatchesScaledPressureExactly)
{
    using Table = ScaledProfileTable;
    constexpr size_t K = Table::kLevelCells;
    Table table(*training_);
    ASSERT_GE(table.paddedEntries(), training_->size());
    // The grid's outer edges are the searched range itself.
    ASSERT_EQ(Table::edgeLevel(0), Table::kLevelMin);
    ASSERT_EQ(Table::edgeLevel(K), Table::kLevelMax);
    // Levels across the whole grid range, including the capacity-floor
    // knot (0.85), both endpoints and every interior edge.
    std::vector<double> levels = {Table::kLevelMin, 0.1, 0.3, 0.5, 0.7,
                                  0.85, 0.9, 1.0, Table::kLevelMax};
    for (size_t k = 1; k < K; ++k)
        levels.push_back(Table::edgeLevel(k));
    for (size_t e = 0; e < training_->size(); ++e) {
        const auto& base = training_->entry(e).fullLoadBase;
        for (size_t c = 0; c < sim::kNumResources; ++c) {
            for (size_t k = 0; k <= K; ++k) {
                // Each edge is the scaled profile at its level, exactly,
                // and the edges never decrease.
                ASSERT_EQ(workloads::scaledPressure(base, Table::edgeLevel(k))
                              .at(c),
                          table.edge(e, c, k))
                    << "entry " << e << " res " << c << " edge " << k;
                ASSERT_EQ(table.edgeCol(c, k)[e], table.edge(e, c, k));
                if (k > 0) {
                    ASSERT_LE(table.edge(e, c, k - 1), table.edge(e, c, k));
                }
            }
        }
        for (double level : levels) {
            sim::ResourceVector direct =
                workloads::scaledPressure(base, level);
            for (size_t c = 0; c < sim::kNumResources; ++c) {
                // Exact, not approximate: the table must be a perfect
                // stand-in for building the scaled profile vector.
                double at = table.at(e, c, level);
                ASSERT_EQ(direct.at(c), at)
                    << "entry " << e << " res " << c << " level "
                    << level;
                ASSERT_LE(table.edge(e, c, 0), at);
                ASSERT_GE(table.edge(e, c, K), at);
                // The cells holding the level bound it too.
                for (size_t k = 0; k < K; ++k) {
                    if (level < Table::edgeLevel(k) ||
                        level > Table::edgeLevel(k + 1))
                        continue;
                    ASSERT_LE(table.edge(e, c, k), at) << level;
                    ASSERT_GE(table.edge(e, c, k + 1), at) << level;
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// The detector's first analysis runs only when its result is read.
// ------------------------------------------------------------------

TEST_F(TrainedFixture, DefaultRoundRunsOneAnalysis)
{
    // A default round's two or three probes never cover
    // minObservedForMatch readings, so the round always widens, and only
    // the widened snapshot is analyzed.
    util::Rng rng(84);
    auto spec = steadySpec("memcached", "rd-heavy", rng, 0.9, 2);
    MiniHost host({spec}, rng.substream("host"));
    Detector detector(*recommender_);
    auto env = host.env();
    util::Rng drng = rng.substream("detect");

    auto& metrics = obs::MetricsRegistry::global();
    metrics.reset();
    metrics.setEnabled(true);
    auto round = detector.detectOnce(env, 0.0, drng);
    metrics.setEnabled(false);
    auto snap = metrics.snapshot();
    metrics.reset();

    EXPECT_FALSE(round.usedShutter);
    EXPECT_FALSE(round.guesses.empty());
    EXPECT_EQ(snap.counter(obs::MetricId::kDetectorExtraProbeRounds).value,
              1u);
    EXPECT_EQ(snap.counter(obs::MetricId::kRecommenderAnalyzeCalls).value,
              1u);
}

TEST_F(TrainedFixture, CarriedCoverageRunsAndReadsFirstAnalysis)
{
    // With carried observations the second round starts from the first
    // round's widened aggregate, so coverage passes: the first analysis
    // runs, is confident, and is what the round reports.
    util::Rng rng(85);
    auto spec = steadySpec("memcached", "rd-heavy", rng, 0.9, 2);
    MiniHost host({spec}, rng.substream("host"));
    Detector detector(*recommender_);
    auto env = host.env();
    util::Rng drng = rng.substream("detect");

    auto& metrics = obs::MetricsRegistry::global();
    metrics.reset();
    metrics.setEnabled(true);
    // Two rounds of the experiment's carry mode: round 2 takes round
    // 1's aggregate as its prior.
    DetectionRound first = detector.detectOnce(env, 0.0, drng, nullptr, 0);
    metrics.reset(); // count the second round alone
    DetectionRound round = detector.detectOnce(
        env, kProfilingIntervalSec, drng, &first.aggregate, 1);
    obs::Snapshot second_round = metrics.snapshot();
    metrics.setEnabled(false);
    metrics.reset();

    ASSERT_GE(first.aggregate.observedCount(),
              static_cast<size_t>(DetectorConfig{}.minObservedForMatch));
    EXPECT_EQ(second_round.counter(obs::MetricId::kRecommenderAnalyzeCalls)
                  .value,
              1u);
    EXPECT_EQ(second_round.counter(obs::MetricId::kDetectorExtraProbeRounds)
                  .value,
              0u);
    ASSERT_FALSE(round.guesses.empty());
    SimilarityResult direct =
        recommender_->analyze(round.aggregate.allExact());
    EXPECT_GT(direct.confidence, 0.0);
    EXPECT_EQ(round.confidence, direct.confidence);
}

// ------------------------------------------------------------------
// Per-thread QueryScratch. The recommender's allocation-free query
// path gives every querying thread one scratch slot, pool worker or
// not; concurrent threads must not perturb each other's results.
// ------------------------------------------------------------------

namespace {

/** Bit-exact digest of one analyze() result. */
uint64_t
analyzeDigest(const core::SimilarityResult& r)
{
    util::Fnv1a dig;
    dig.u64(r.ranking.size());
    for (const auto& [idx, score] : r.ranking) {
        dig.u64(idx);
        dig.f64(score);
    }
    for (size_t c = 0; c < sim::kNumResources; ++c)
        dig.f64(r.reconstructed.at(c));
    dig.f64(r.margin);
    dig.f64(r.topFittedLevel);
    return dig.h;
}

/** Deterministic query mix keyed by index (order-independent). */
std::vector<core::SparseObservation>
scratchQueryMix(const core::TrainingSet& training, size_t count)
{
    std::vector<core::SparseObservation> queries(count);
    for (size_t i = 0; i < count; ++i) {
        util::Rng q = util::Rng::stream(909, {0x5C1A, i});
        const auto& entry = training.entry(q.index(training.size()));
        core::SparseObservation obs;
        size_t observed = 2 + q.index(4); // 2-5 resources
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            obs.set(r, q.clampedGaussian(entry.fullLoadBase[r], 1.0,
                                         0.0, 100.0));
        }
        queries[i] = obs;
    }
    return queries;
}

} // namespace

TEST_F(TrainedFixture, QueryScratchIsPerThreadUnderPoolContention)
{
    constexpr size_t kQueries = 64;
    constexpr size_t kWorkers = 4;
    constexpr size_t kOutsiders = 3;
    auto queries = scratchQueryMix(*training_, kQueries);

    // Serial baseline digests.
    std::vector<uint64_t> serial(kQueries);
    for (size_t i = 0; i < kQueries; ++i)
        serial[i] = analyzeDigest(recommender_->analyze(queries[i]));

    // Contended run: a parallelFor over pool workers, the main thread
    // helping, while plain std::threads run the same queries. Metrics
    // on, to count slot hits and creations.
    util::ThreadPool::setGlobalThreads(kWorkers);
    auto& metrics = obs::MetricsRegistry::global();
    metrics.reset();
    metrics.setEnabled(true);

    std::vector<std::vector<uint64_t>> external(
        kOutsiders, std::vector<uint64_t>(kQueries));
    std::vector<std::thread> outsiders;
    for (size_t t = 0; t < kOutsiders; ++t) {
        outsiders.emplace_back([&, t] {
            for (size_t i = 0; i < kQueries; ++i)
                external[t][i] =
                    analyzeDigest(recommender_->analyze(queries[i]));
        });
    }
    std::vector<uint64_t> pooled(kQueries);
    util::parallelFor(
        0, kQueries,
        [&](size_t i) {
            pooled[i] = analyzeDigest(recommender_->analyze(queries[i]));
        },
        1);
    for (auto& t : outsiders)
        t.join();

    metrics.setEnabled(false);
    auto snap = metrics.snapshot();
    metrics.reset();
    util::ThreadPool::setGlobalThreads(0);

    // Bit-identical results on every thread, under full contention.
    for (size_t i = 0; i < kQueries; ++i) {
        EXPECT_EQ(pooled[i], serial[i]) << "pool query " << i;
        for (size_t t = 0; t < kOutsiders; ++t)
            EXPECT_EQ(external[t][i], serial[i])
                << "external thread " << t << " query " << i;
    }

    // Every query used its thread's slot, existing or new, and no
    // thread created more than one: the workers, main, the outsiders.
    uint64_t hits =
        snap.counter(obs::MetricId::kRecommenderScratchWorkerHits).value;
    uint64_t created =
        snap.counter(obs::MetricId::kRecommenderScratchSpareAcquisitions)
            .value;
    EXPECT_EQ(hits + created, kQueries * (1 + kOutsiders));
    EXPECT_LE(created, kWorkers + 1 + kOutsiders);
}
