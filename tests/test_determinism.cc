/**
 * @file
 * Determinism under parallelism: the same seed must produce bit-identical
 * results at any thread count. Covers the controlled experiment (the
 * per-server fan-out), the recommender's per-thread query scratch, and
 * the counter-based Rng::stream derivation the task decomposition
 * relies on.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/recommender.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;
using namespace bolt::core;

namespace {

/** Small but multi-host config: several victims per server. */
ExperimentConfig
smallConfig(uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.servers = 8;
    cfg.victims = 20;
    cfg.trainingApps = 60;
    cfg.seed = seed;
    return cfg;
}

ExperimentResult
runAtThreads(unsigned threads, uint64_t seed)
{
    util::ThreadPool::setGlobalThreads(threads);
    return ControlledExperiment(smallConfig(seed)).run();
}

void
expectIdentical(const ExperimentResult& a, const ExperimentResult& b)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    EXPECT_DOUBLE_EQ(a.aggregateAccuracy(), b.aggregateAccuracy());
    EXPECT_DOUBLE_EQ(a.characteristicsAccuracy(),
                     b.characteristicsAccuracy());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
        const auto& x = a.outcomes[i];
        const auto& y = b.outcomes[i];
        EXPECT_EQ(x.spec.classLabel(), y.spec.classLabel()) << i;
        EXPECT_EQ(x.server, y.server) << i;
        EXPECT_EQ(x.coResidents, y.coResidents) << i;
        EXPECT_EQ(x.dominant, y.dominant) << i;
        EXPECT_EQ(x.classCorrect, y.classCorrect) << i;
        EXPECT_EQ(x.charCorrect, y.charCorrect) << i;
        EXPECT_EQ(x.iterations, y.iterations) << i;
        EXPECT_EQ(x.departed, y.departed) << i;
        EXPECT_EQ(x.departedRound, y.departedRound) << i;
    }
}

/** smallConfig plus a nontrivial fault plan: every fault kind enabled. */
ExperimentConfig
faultedConfig(uint64_t seed, uint64_t fault_seed = 0)
{
    ExperimentConfig cfg = smallConfig(seed);
    cfg.faults.arrivalProb = 0.15;
    cfg.faults.departureProb = 0.10;
    cfg.faults.phaseFlipProb = 0.10;
    cfg.faults.dropoutProb = 0.20;
    cfg.faults.spikeProb = 0.10;
    cfg.faults.capacityJitterAmp = 0.08;
    cfg.faults.seed = fault_seed;
    return cfg;
}

} // namespace

TEST(Determinism, ExperimentIdenticalAt1_2_8Threads)
{
    auto r1 = runAtThreads(1, 77);
    auto r2 = runAtThreads(2, 77);
    auto r8 = runAtThreads(8, 77);
    expectIdentical(r1, r2);
    expectIdentical(r1, r8);
    // Sanity: the experiment actually detected something, so the
    // comparison is not vacuous.
    EXPECT_GT(r1.outcomes.size(), 10u);
    EXPECT_GT(r1.aggregateAccuracy(), 0.3);
}

TEST(Determinism, FaultedExperimentIdenticalAt1_2_8Threads)
{
    // The fault layer must preserve the thread-count invariance: every
    // fault draw comes from its own counter-based stream and all churn
    // mutations are task-local, so a faulted run is as deterministic as
    // an unfaulted one.
    auto run = [](unsigned threads) {
        util::ThreadPool::setGlobalThreads(threads);
        return ControlledExperiment(faultedConfig(77)).run();
    };
    auto r1 = run(1);
    auto r2 = run(2);
    auto r8 = run(8);
    expectIdentical(r1, r2);
    expectIdentical(r1, r8);
    EXPECT_EQ(r1.digest(), r2.digest());
    EXPECT_EQ(r1.digest(), r8.digest());
    // Non-vacuous: churn actually removed victims mid-detection, and
    // detection still identified a useful fraction of the rest.
    EXPECT_GT(r1.departedCount(), 0u);
    EXPECT_GT(r1.aggregateAccuracy(), 0.2);
}

TEST(Determinism, FaultDigestTracksFaultSeed)
{
    // The schedule of faults is a pure function of (config, fault
    // seed): same seed -> same digest, different fault seed -> a
    // different fault schedule and hence (with these rates) a
    // different digest, all else equal.
    util::ThreadPool::setGlobalThreads(4);
    auto base = ControlledExperiment(faultedConfig(77)).run();
    auto same = ControlledExperiment(faultedConfig(77)).run();
    EXPECT_EQ(base.digest(), same.digest());

    auto reseeded = ControlledExperiment(faultedConfig(77, 12345)).run();
    EXPECT_NE(base.digest(), reseeded.digest());
}

TEST(Determinism, RngStreamIsPureAndOrderFree)
{
    // Same (seed, path) -> same stream, regardless of when or where it
    // is derived; different coordinates -> decorrelated streams.
    auto a = util::Rng::stream(9, {4, 2});
    auto b = util::Rng::stream(9, {4, 2});
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());

    EXPECT_NE(util::Rng::stream(9, {4, 2}).uniform(),
              util::Rng::stream(9, {2, 4}).uniform());
    EXPECT_NE(util::Rng::stream(9, {4}).uniform(),
              util::Rng::stream(9, {4, 0}).uniform());
    EXPECT_NE(util::Rng::stream(9, {4, 2}).uniform(),
              util::Rng::stream(10, {4, 2}).uniform());
}

TEST(Determinism, ParallelForCoversEveryIndexOnce)
{
    util::ThreadPool::setGlobalThreads(8);
    std::vector<int> hits(10007, 0);
    util::parallelFor(0, hits.size(),
                      [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(1, hits[i]) << i;
}

TEST(Determinism, ObservabilityIsInert)
{
    // Turning metrics + tracing on must not change any result bit:
    // observability observes, it does not perturb.
    // (BoltCli.ObservabilityFlagsNeverChangeStdout checks the same
    // property end to end through bolt_cli.)
    auto& metrics = obs::MetricsRegistry::global();
    auto& tracer = obs::Tracer::global();
    metrics.setEnabled(false);
    tracer.setEnabled(false);

    auto plain = runAtThreads(2, 41);

    metrics.reset();
    metrics.setEnabled(true);
    tracer.clear();
    tracer.setEnabled(true);
    auto observed = runAtThreads(2, 41);
    obs::Snapshot snap = metrics.snapshot();
    size_t events = tracer.sortedEvents().size();
    metrics.setEnabled(false);
    tracer.setEnabled(false);
    tracer.clear();

    expectIdentical(plain, observed);
    EXPECT_EQ(plain.digest(), observed.digest());
    // ...and the instrumentation actually recorded the run.
    EXPECT_EQ(snap.counter(obs::MetricId::kExperimentVictimsScheduled)
                  .value,
              observed.outcomes.size());
    EXPECT_GT(snap.counter(obs::MetricId::kDetectorRounds).value, 0u);
    EXPECT_GT(events, 0u);
}

TEST(Determinism, SimMetricsIdenticalAt1_2_8Threads)
{
    // Sim-class metrics are a pure function of (config, seed): the
    // merged counter values and histogram bucket vectors must be
    // bit-identical however many pool threads recorded the shards.
    auto& metrics = obs::MetricsRegistry::global();
    auto runCounted = [&](unsigned threads) {
        metrics.reset();
        metrics.setEnabled(true);
        runAtThreads(threads, 77);
        obs::Snapshot snap = metrics.snapshot();
        metrics.setEnabled(false);
        return snap;
    };
    obs::Snapshot s1 = runCounted(1);
    obs::Snapshot s2 = runCounted(2);
    obs::Snapshot s8 = runCounted(8);

    for (size_t i = 0; i < obs::kNumMetrics; ++i) {
        const obs::MetricInfo& info =
            obs::metricInfo(static_cast<obs::MetricId>(i));
        if (info.cls != obs::MetricClass::Sim)
            continue; // pool.* metrics are scheduling-dependent
        if (info.kind == obs::MetricKind::Counter) {
            EXPECT_EQ(s1.counter(info.id).value,
                      s2.counter(info.id).value)
                << info.name;
            EXPECT_EQ(s1.counter(info.id).value,
                      s8.counter(info.id).value)
                << info.name;
        } else if (info.kind == obs::MetricKind::Histogram) {
            const auto& h1 = s1.histogram(info.id);
            const auto& h2 = s2.histogram(info.id);
            const auto& h8 = s8.histogram(info.id);
            EXPECT_EQ(h1.count, h2.count) << info.name;
            EXPECT_EQ(h1.buckets, h2.buckets) << info.name;
            EXPECT_EQ(h1.count, h8.count) << info.name;
            EXPECT_EQ(h1.buckets, h8.buckets) << info.name;
            // The float sum is merged in shard order, so only
            // near-equality holds across thread counts.
            EXPECT_NEAR(h1.sum, h8.sum,
                        1e-9 * (1.0 + std::abs(h1.sum)))
                << info.name;
        }
    }
    // Non-vacuous: detection rounds were actually counted.
    EXPECT_GT(s1.counter(obs::MetricId::kDetectorRounds).value, 0u);
    EXPECT_GT(
        s1.histogram(obs::MetricId::kDetectorIterationsToConvergence)
            .count,
        0u);
}

TEST(Determinism, TraceExportIdenticalAcrossThreadCounts)
{
    // The sim-time trace is sorted by content on export, so the bytes
    // must be identical at any thread count.
    auto& tracer = obs::Tracer::global();
    auto runTraced = [&](unsigned threads) {
        tracer.clear();
        tracer.setEnabled(true);
        runAtThreads(threads, 77);
        std::ostringstream os;
        tracer.writeChromeTrace(os);
        tracer.setEnabled(false);
        tracer.clear();
        return os.str();
    };
    std::string t1 = runTraced(1);
    std::string t8 = runTraced(8);
    EXPECT_EQ(t1, t8);
    EXPECT_NE(t1.find("detector.round"), std::string::npos);
}

TEST(Determinism, TelemetryIsInert)
{
    // The windowed telemetry recorder observes the same hot paths the
    // metrics do: enabling it must not change any result bit either.
    auto& telemetry = obs::TimeSeriesRecorder::global();
    telemetry.setEnabled(false);
    auto plain = runAtThreads(2, 41);

    telemetry.configure(telemetry.config()); // Drop recorded data.
    telemetry.setEnabled(true);
    auto observed = runAtThreads(2, 41);
    obs::TelemetrySnapshot snap = telemetry.snapshot();
    telemetry.setEnabled(false);
    telemetry.configure(telemetry.config());

    expectIdentical(plain, observed);
    EXPECT_EQ(plain.digest(), observed.digest());
    // ...and the recorder actually saw the detector's rounds.
    uint64_t rounds = 0;
    for (const obs::SeriesPoint& p : snap.points)
        if (p.id == obs::SeriesId::kDetectorRoundEvents)
            rounds += p.count;
    EXPECT_GT(rounds, 0u);
}

TEST(Determinism, TelemetryJsonlIdenticalAcrossThreadCounts)
{
    // Window sums are fixed-point and sketch buckets are integers, so
    // the merged snapshot is a sum of integers: the JSONL export must
    // be byte-identical however many pool threads recorded the shards.
    auto& telemetry = obs::TimeSeriesRecorder::global();
    auto runDumped = [&](unsigned threads) {
        telemetry.configure(telemetry.config());
        telemetry.setEnabled(true);
        runAtThreads(threads, 77);
        std::ostringstream os;
        obs::writeTelemetryJsonl(os, telemetry.snapshot());
        telemetry.setEnabled(false);
        telemetry.configure(telemetry.config());
        return os.str();
    };
    std::string d1 = runDumped(1);
    std::string d2 = runDumped(2);
    std::string d8 = runDumped(8);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1, d8);
    EXPECT_NE(d1.find("detector.round_events"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Recommender golden tests: the query-path caches (fold-in factors,
// level tables, per-thread scratch, candidate pruning) must be
// invisible in the outputs. The analyze literals below were recorded
// when the closed-form fold-in replaced the SGD completion, the
// decompose literal from the pre-optimization implementation, all at
// full precision; every comparison is exact (EXPECT_EQ on doubles, not
// near-equality).
// ---------------------------------------------------------------------------

namespace {

/** The fixed training set the golden values refer to. */
TrainingSet
goldenTraining()
{
    util::Rng rng(1);
    auto specs = workloads::trainingSet(rng);
    return TrainingSet::fromSpecs(specs, rng);
}

/** Entry 17's profile, first five resources, all Exact. */
SparseObservation
goldenObsA(const TrainingSet& training)
{
    SparseObservation obs;
    const auto& e = training.entry(17);
    size_t n = 0;
    for (sim::Resource r : sim::kAllResources) {
        if (n++ >= 5)
            break;
        obs.set(r, e.profile[r]);
    }
    return obs;
}

/** Entry 42 at 0.6 load: L1I/CPU Exact, LLC inflated and Upper. */
SparseObservation
goldenObsB(const TrainingSet& training)
{
    SparseObservation obs;
    const auto& e = training.entry(42);
    auto p = workloads::scaledPressure(e.fullLoadBase, 0.6);
    obs.set(sim::Resource::L1I, p[sim::Resource::L1I]);
    obs.set(sim::Resource::CPU, p[sim::Resource::CPU]);
    obs.set(sim::Resource::LLC, p[sim::Resource::LLC] + 7.0,
            SparseObservation::Bound::Upper);
    return obs;
}

/** Aggregate blend: entry 5 at 0.7 (core + uncore) plus 40 at 0.5. */
SparseObservation
goldenObsC(const TrainingSet& training)
{
    SparseObservation obs;
    auto pa =
        workloads::scaledPressure(training.entry(5).fullLoadBase, 0.7);
    auto pb =
        workloads::scaledPressure(training.entry(40).fullLoadBase, 0.5);
    for (sim::Resource r : sim::kAllResources) {
        double v = sim::isCoreResource(r)
                       ? pa[r]
                       : std::min(pa[r] + pb[r], 100.0);
        obs.set(r, v);
    }
    return obs;
}

constexpr std::pair<size_t, double> kGoldenATop5[] = {
    {66, 0.90676064199484285},  {17, 0.86834168575781256},
    {110, 0.83416295725556489}, {19, 0.8305673198010467},
    {23, 0.82162879916616283},
};
constexpr double kGoldenAMargin = 0.072597684739277968;
constexpr double kGoldenALevel = 0.85845476205570537;
constexpr double kGoldenARecon[] = {
    19.477911857039675,  37.406807162857852, 32.098826912160263,
    44.374717149588378,  38.172171358439094, 12.679596804093872,
    45.236782015653262,  3.8978478849716169, 9.3776912914211721,
    6.4326685062631315,
};
constexpr double kGoldenCDistance = 0.14683519884015681;

} // namespace

TEST(Determinism, RecommenderGoldenAnalyzeExact)
{
    util::ThreadPool::setGlobalThreads(2);
    TrainingSet training = goldenTraining();
    HybridRecommender rec(training);
    auto r = rec.analyze(goldenObsA(training));

    ASSERT_GE(r.ranking.size(), std::size(kGoldenATop5));
    for (size_t k = 0; k < std::size(kGoldenATop5); ++k) {
        EXPECT_EQ(kGoldenATop5[k].first, r.ranking[k].first) << k;
        EXPECT_EQ(kGoldenATop5[k].second, r.ranking[k].second) << k;
    }
    EXPECT_EQ(kGoldenAMargin, r.margin);
    EXPECT_EQ(kGoldenALevel, r.topFittedLevel);
    EXPECT_EQ(2u, r.conceptsKept);
    for (size_t c = 0; c < sim::kNumResources; ++c)
        EXPECT_EQ(kGoldenARecon[c], r.reconstructed.at(c)) << c;

    const std::pair<std::string, double> dist[] = {
        {"speccpu:libquantum", 0.21654651043551251},
        {"minebench:datamining", 0.19920921703314015},
        {"speccpu:lbm", 0.19835053095049965},
        {"speccpu:soplex", 0.1962158932497701},
        {"bioparallel:bio", 0.18967784833107756},
    };
    ASSERT_EQ(std::size(dist), r.distribution.size());
    for (size_t k = 0; k < std::size(dist); ++k) {
        EXPECT_EQ(dist[k].first, r.distribution[k].first) << k;
        EXPECT_EQ(dist[k].second, r.distribution[k].second) << k;
    }

    // Back-to-back queries reuse the same scratch buffers; stale state
    // from the first must not bleed into the second.
    auto r2 = rec.analyze(goldenObsA(training));
    EXPECT_EQ(r.ranking, r2.ranking);
    EXPECT_EQ(r.distribution, r2.distribution);
    EXPECT_EQ(r.margin, r2.margin);
}

TEST(Determinism, RecommenderGoldenAnalyzeWithUpperBound)
{
    util::ThreadPool::setGlobalThreads(2);
    TrainingSet training = goldenTraining();
    HybridRecommender rec(training);
    auto r = rec.analyze(goldenObsB(training));

    const std::pair<size_t, double> top3[] = {
        {42, 0.99667606410855791},
        {1, 0.98909005436462449},
        {50, 0.97779843461121618},
    };
    ASSERT_GE(r.ranking.size(), std::size(top3));
    for (size_t k = 0; k < std::size(top3); ++k) {
        EXPECT_EQ(top3[k].first, r.ranking[k].first) << k;
        EXPECT_EQ(top3[k].second, r.ranking[k].second) << k;
    }
    EXPECT_EQ(0.0075860097439334195, r.margin);
    EXPECT_EQ(0.60008004171405616, r.topFittedLevel);
}

TEST(Determinism, RecommenderGoldenDecompose)
{
    util::ThreadPool::setGlobalThreads(2);
    TrainingSet training = goldenTraining();
    HybridRecommender rec(training);
    SparseObservation obs = goldenObsC(training);

    auto shared = rec.decompose(obs, true, 3);
    ASSERT_EQ(2u, shared.parts.size());
    EXPECT_EQ(5u, shared.parts[0].index);
    EXPECT_EQ(0.6931000807239186, shared.parts[0].level);
    EXPECT_EQ(40u, shared.parts[1].index);
    EXPECT_EQ(0.50612005848250319, shared.parts[1].level);
    EXPECT_EQ(kGoldenCDistance, shared.distance);
    EXPECT_EQ(0.98783829212325025, shared.score);

    auto unshared = rec.decompose(obs, false, 2);
    ASSERT_EQ(2u, unshared.parts.size());
    EXPECT_EQ(1u, unshared.parts[0].index);
    EXPECT_EQ(1.0191360847205995, unshared.parts[0].level);
    EXPECT_EQ(115u, unshared.parts[1].index);
    EXPECT_EQ(0.34000208866082982, unshared.parts[1].level);
    EXPECT_EQ(7.7007752564741061, unshared.distance);
    EXPECT_EQ(0.52638032753529185, unshared.score);
}

TEST(Determinism, RecommenderIdenticalAcrossThreadsAndScratchPaths)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        util::ThreadPool::setGlobalThreads(threads);
        TrainingSet training = goldenTraining();
        HybridRecommender rec(training);
        SparseObservation obsA = goldenObsA(training);
        SparseObservation obsC = goldenObsC(training);

        // Worker-slot scratch: queries issued from inside pool tasks
        // (grain 1 spreads them across workers). Spare-list scratch:
        // queries issued from this thread, which is not a pool worker.
        std::vector<SimilarityResult> fromWorkers(2 * threads);
        util::parallelFor(
            0, fromWorkers.size(),
            [&](size_t i) { fromWorkers[i] = rec.analyze(obsA); }, 1);
        auto fromMain = rec.analyze(obsA);

        EXPECT_EQ(kGoldenALevel, fromMain.topFittedLevel) << threads;
        EXPECT_EQ(kGoldenAMargin, fromMain.margin) << threads;
        for (const auto& r : fromWorkers) {
            EXPECT_EQ(fromMain.ranking, r.ranking) << threads;
            EXPECT_EQ(fromMain.distribution, r.distribution) << threads;
            EXPECT_EQ(fromMain.margin, r.margin) << threads;
            EXPECT_EQ(fromMain.topFittedLevel, r.topFittedLevel)
                << threads;
        }

        std::vector<Decomposition> decs(threads + 1);
        util::parallelFor(
            0, decs.size(),
            [&](size_t i) { decs[i] = rec.decompose(obsC, true, 3); }, 1);
        for (const auto& d : decs) {
            EXPECT_EQ(kGoldenCDistance, d.distance) << threads;
            ASSERT_EQ(2u, d.parts.size()) << threads;
            EXPECT_EQ(5u, d.parts[0].index) << threads;
        }
    }
}
