/**
 * @file
 * Tests for the extension features and detector configuration paths:
 * the pattern-obfuscation defense, detector knobs (shutter, carry,
 * probe budget, decomposition depth), and decomposition properties.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "fault/fault.h"
#include "util/stats.h"
#include "sim/cluster.h"
#include "workloads/generators.h"

using namespace bolt;
using namespace bolt::core;

namespace {

ExperimentConfig
smallConfig(uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.servers = 10;
    cfg.victims = 20;
    cfg.seed = seed;
    return cfg;
}

} // namespace

TEST(Obfuscation, ZeroAmplitudeChangesNothing)
{
    util::Rng rng(1);
    const auto* f = workloads::findFamily("spark");
    auto spec = workloads::instantiate(*f, f->variants[0], "M", rng);
    spec.pattern = workloads::LoadPattern::constant(0.8);

    auto plain_spec = spec;
    workloads::AppInstance plain(plain_spec, util::Rng(5));
    spec.obfuscation = 0.0;
    workloads::AppInstance zero(spec, util::Rng(5));
    for (double t = 0; t < 30; t += 10)
        EXPECT_EQ(plain.pressureAt(t).toVector(),
                  zero.pressureAt(t).toVector());
    EXPECT_DOUBLE_EQ(zero.obfuscationSlowdown(), 1.0);
}

TEST(Obfuscation, ScramblesPressureAndCostsThroughput)
{
    util::Rng rng(2);
    const auto* f = workloads::findFamily("memcached");
    auto spec = workloads::instantiate(*f, f->variants[0], "M", rng);
    spec.pattern = workloads::LoadPattern::constant(0.9);
    spec.obfuscation = 0.4;
    workloads::AppInstance inst(spec, util::Rng(6));

    // Dispersion around the mean must exceed the plain jitter's.
    util::Summary obf;
    for (double t = 0; t < 400; t += 1.0)
        obf.add(inst.pressureAt(t)[sim::Resource::L1I]);
    double mean_l1i = inst.meanPressureAt(0.0)[sim::Resource::L1I];
    EXPECT_GT(obf.stddev(), spec.spread[sim::Resource::L1I] * 2.0);
    EXPECT_NEAR(obf.mean(), mean_l1i, mean_l1i * 0.15);
    EXPECT_NEAR(inst.obfuscationSlowdown(), 1.2, 1e-9);
}

TEST(Obfuscation, ReducesDetectionAccuracy)
{
    // The trend needs a reasonable sample (single-host samples are
    // noisy); the ablation bench sweeps the full curve.
    auto plain = smallConfig(31);
    plain.servers = 16;
    plain.victims = 40;
    auto obfuscated = plain;
    obfuscated.victimObfuscation = 0.6;
    double acc_plain =
        ControlledExperiment(plain).run().aggregateAccuracy();
    double acc_obf =
        ControlledExperiment(obfuscated).run().aggregateAccuracy();
    EXPECT_LT(acc_obf, acc_plain + 0.08);
}

TEST(DetectorConfig, SingleMatchModeStillDetectsLoneVictims)
{
    auto cfg = smallConfig(32);
    cfg.maxVictimsPerServer = 1;
    cfg.victims = 10;
    cfg.detector.maxCoResidents = 1;
    auto result = ControlledExperiment(cfg).run();
    EXPECT_GT(result.aggregateAccuracy(), 0.7);
}

TEST(DetectorConfig, ZeroExtraProbesRunsThinner)
{
    auto cfg = smallConfig(33);
    cfg.detector.extraProbesWhenUnconfident = 0;
    cfg.detector.minObservedForMatch = 2;
    // Must run to completion and produce outcomes, accuracy may drop.
    auto result = ControlledExperiment(cfg).run();
    EXPECT_FALSE(result.outcomes.empty());
}

TEST(DetectorConfig, CarryModeRunsAndStaysDeterministic)
{
    auto cfg = smallConfig(34);
    cfg.detector.carryObservations = true;
    auto a = ControlledExperiment(cfg).run();
    auto b = ControlledExperiment(cfg).run();
    EXPECT_DOUBLE_EQ(a.aggregateAccuracy(), b.aggregateAccuracy());
}

TEST(Decomposition, ScoreMonotoneInDistance)
{
    util::Rng rng(3);
    util::Rng tr = rng.substream("t");
    auto specs = workloads::trainingSet(tr);
    auto training = TrainingSet::fromSpecs(specs, tr);
    HybridRecommender rec(training);

    // A perfect single-tenant signal scores higher than a perturbed one.
    const auto& entry = training.entry(3);
    SparseObservation clean, dirty;
    for (sim::Resource r : sim::kAllResources) {
        clean.set(r, entry.profile[r]);
        dirty.set(r, std::clamp(entry.profile[r] + 18.0, 0.0, 100.0));
    }
    auto d_clean = rec.decompose(clean, true, 1);
    auto d_dirty = rec.decompose(dirty, true, 1);
    EXPECT_LT(d_clean.distance, d_dirty.distance);
    EXPECT_GT(d_clean.score, d_dirty.score);
}

TEST(Decomposition, PartLevelsWithinRange)
{
    util::Rng rng(4);
    util::Rng tr = rng.substream("t");
    auto specs = workloads::trainingSet(tr);
    auto training = TrainingSet::fromSpecs(specs, tr);
    HybridRecommender rec(training);

    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, training.entry(7).profile[r]);
    auto d = rec.decompose(obs, true, 3);
    for (const auto& p : d.parts) {
        EXPECT_LT(p.index, training.size());
        EXPECT_GE(p.level, 0.05);
        EXPECT_LE(p.level, 1.1);
    }
}

TEST(Decomposition, MaxPartsRespected)
{
    util::Rng rng(5);
    util::Rng tr = rng.substream("t");
    auto specs = workloads::trainingSet(tr);
    auto training = TrainingSet::fromSpecs(specs, tr);
    HybridRecommender rec(training);

    // A saturated everything-high aggregate invites many parts; the cap
    // must hold.
    SparseObservation obs;
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, 95.0);
    auto d = rec.decompose(obs, true, 2);
    EXPECT_LE(d.parts.size(), 2u);
}

/** Property sweep: obfuscation amplitudes keep pressure in range. */
class ObfuscationSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ObfuscationSweep, PressureStaysBounded)
{
    util::Rng rng(6);
    const auto* f = workloads::findFamily("cassandra");
    auto spec = workloads::instantiate(*f, f->variants[0], "L", rng);
    spec.obfuscation = GetParam();
    workloads::AppInstance inst(spec, util::Rng(7));
    for (double t = 0; t < 50; t += 5) {
        auto p = inst.pressureAt(t);
        for (sim::Resource r : sim::kAllResources) {
            EXPECT_GE(p[r], 0.0);
            EXPECT_LE(p[r], 100.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, ObfuscationSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.9));

TEST(FaultPlan, ZeroRatePlanIsBitIdenticalToNoPlan)
{
    // The inertness contract: a FaultPlan with every rate at zero must
    // not change a single output bit relative to a config that never
    // mentioned faults — the experiment engine does not even attach the
    // oracle. (Modifiers alone, e.g. a nonzero fault seed, must also be
    // inert: no rate means no draw.)
    auto plain = ControlledExperiment(smallConfig(23)).run();

    ExperimentConfig with_zero = smallConfig(23);
    with_zero.faults.seed = 4242;       // modifier only
    with_zero.faults.spikeMagnitude = 80.0; // modifier only
    ASSERT_FALSE(with_zero.faults.enabled());
    auto zeroed = ControlledExperiment(with_zero).run();

    EXPECT_EQ(plain.digest(), zeroed.digest());
    ASSERT_EQ(plain.outcomes.size(), zeroed.outcomes.size());
    for (size_t i = 0; i < plain.outcomes.size(); ++i) {
        EXPECT_EQ(plain.outcomes[i].classCorrect,
                  zeroed.outcomes[i].classCorrect) << i;
        EXPECT_EQ(plain.outcomes[i].iterations,
                  zeroed.outcomes[i].iterations) << i;
        EXPECT_FALSE(zeroed.outcomes[i].departed) << i;
    }
}

TEST(FaultPlan, ChurnDegradesAccuracyGracefully)
{
    // Heavy churn must cost accuracy (otherwise the layer is not
    // actually perturbing anything) without collapsing detection to
    // zero (graceful degradation: masking, retries, abstention).
    auto plain = ControlledExperiment(smallConfig(23)).run();

    ExperimentConfig churny = smallConfig(23);
    churny.faults.departureProb = 0.25;
    churny.faults.dropoutProb = 0.30;
    auto churned = ControlledExperiment(churny).run();

    EXPECT_GT(churned.departedCount(), 0u);
    EXPECT_LT(churned.aggregateAccuracy(), plain.aggregateAccuracy());
    EXPECT_GT(churned.aggregateAccuracy(), 0.15);
}
