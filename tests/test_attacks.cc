/**
 * @file
 * Unit tests for the attacks library: internal DoS (crafted contention,
 * the migration-defense timeline), resource-freeing attacks, and the VM
 * co-residency detection attack.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "attacks/coresidency.h"
#include "attacks/dos.h"
#include "attacks/rfa.h"
#include "workloads/catalog.h"

using namespace bolt;
using namespace bolt::attacks;

namespace {

workloads::AppSpec
steady(const char* family, const char* variant, double level,
       util::Rng& rng)
{
    const auto* f = workloads::findFamily(family);
    const workloads::VariantDef* v = &f->variants[0];
    for (const auto& cand : f->variants)
        if (cand.name == variant)
            v = &cand;
    auto spec = workloads::instantiate(*f, *v, "M", rng);
    spec.pattern = workloads::LoadPattern::constant(level);
    return spec;
}

} // namespace

TEST(DosCraft, TargetsTopResources)
{
    sim::ResourceVector victim;
    victim[sim::Resource::L1I] = 80.0;
    victim[sim::Resource::LLC] = 70.0;
    victim[sim::Resource::NetBw] = 40.0;
    auto payload = DosAttack::craftContention(victim, 2);
    EXPECT_GT(payload[sim::Resource::L1I], 80.0);
    EXPECT_GT(payload[sim::Resource::LLC], 70.0);
    EXPECT_DOUBLE_EQ(payload[sim::Resource::NetBw], 0.0);
    // Stealth: the crafted payload keeps compute usage small.
    EXPECT_LT(payload[sim::Resource::CPU], 30.0);
}

TEST(DosCraft, NaiveSaturatesCpu)
{
    auto payload = DosAttack::naiveCpuSaturation();
    EXPECT_DOUBLE_EQ(payload[sim::Resource::CPU], 100.0);
}

TEST(DosTimeline, BoltEvadesMigrationNaiveDoesNot)
{
    DosTimelineExperiment exp;
    auto bolt_run = exp.run(true);
    auto naive_run = exp.run(false);
    ASSERT_EQ(bolt_run.size(), 120u);

    // The naive attack is caught: migration completes and latency
    // returns to nominal; Bolt keeps degrading the victim to the end.
    EXPECT_TRUE(naive_run.back().migrated);
    EXPECT_FALSE(bolt_run.back().migrated);
    double nominal = bolt_run[5].p99Ms;
    EXPECT_GT(bolt_run.back().p99Ms, nominal * 20.0);
    EXPECT_LT(naive_run.back().p99Ms, nominal * 4.0);
}

TEST(DosTimeline, AttackStartsAfterDetection)
{
    DosTimelineExperiment exp;
    auto run = exp.run(true);
    double before = run[10].p99Ms;
    double after = run[40].p99Ms;
    EXPECT_GT(after, before * 10.0);
}

TEST(DosTimeline, UtilizationSeparatesAttacks)
{
    DosTimelineExperiment exp;
    auto bolt_run = exp.run(true);
    auto naive_run = exp.run(false);
    // While both attacks are active (t in [25, 75]), the naive kernel
    // keeps the host hot; Bolt stays clearly below the 70% trigger.
    for (size_t t = 25; t < 75; ++t) {
        EXPECT_GT(naive_run[t].cpuUtil, 70.0) << t;
        EXPECT_LT(bolt_run[t].cpuUtil, 70.0) << t;
    }
}

TEST(DosImpact, MatchesPaperBands)
{
    auto impact = dosImpactStudy(108, 5);
    EXPECT_EQ(impact.victims, 108u);
    // Paper: 2.2x mean / 9.8x max execution-time degradation; tails of
    // latency-critical victims inflate 8-140x. We check the bands
    // loosely — shape, not testbed-exact numbers.
    EXPECT_GT(impact.meanExecDegradation, 1.5);
    EXPECT_LT(impact.meanExecDegradation, 5.0);
    EXPECT_GT(impact.maxExecDegradation, impact.meanExecDegradation);
    EXPECT_GT(impact.maxTailMultiplier, 50.0);
    EXPECT_GT(impact.minTailMultiplier, 1.0);
}

TEST(Rfa, StalledPressureFreesNonBottleneckResources)
{
    sim::ResourceVector own(60.0);
    auto stalled = stalledPressure(own, 2.0, sim::Resource::NetBw);
    EXPECT_DOUBLE_EQ(stalled[sim::Resource::NetBw], 60.0); // queued
    EXPECT_DOUBLE_EQ(stalled[sim::Resource::LLC], 30.0);   // freed
    EXPECT_DOUBLE_EQ(stalled[sim::Resource::MemCap], 60.0); // resident
    EXPECT_DOUBLE_EQ(stalled[sim::Resource::DiskCap], 60.0);
}

TEST(Rfa, HelperSaturatesTarget)
{
    auto helper = helperFor(sim::Resource::MemBw);
    EXPECT_GT(helper[sim::Resource::MemBw], 90.0);
    EXPECT_GT(helper[sim::Resource::CPU], 0.0);
    EXPECT_DOUBLE_EQ(helper[sim::Resource::DiskBw], 0.0);
}

TEST(Rfa, VictimDegradesAndBeneficiaryGains)
{
    util::Rng rng(42);
    sim::ContentionModel cm{
        sim::IsolationConfig::none(sim::Platform::VirtualMachine)};
    auto web = steady("http server", "apache", 0.9, rng);
    auto mcf = steady("speccpu", "mcf", 0.85, rng);
    auto outcome = runRfa(web, mcf, sim::Resource::CPU, cm);
    EXPECT_EQ(outcome.victimMetric, "QPS");
    EXPECT_LT(outcome.victimChange, -0.2);
    EXPECT_GT(outcome.beneficiaryGain, 0.05);
}

TEST(Rfa, Table2Directions)
{
    // All three paper victims lose, the beneficiary always gains.
    util::Rng rng(43);
    sim::ContentionModel cm{
        sim::IsolationConfig::none(sim::Platform::VirtualMachine)};
    auto mcf = steady("speccpu", "mcf", 0.8, rng);
    struct Case
    {
        const char* family;
        const char* variant;
        sim::Resource target;
    };
    for (const Case& c :
         {Case{"http server", "apache", sim::Resource::CPU},
          Case{"hadoop", "sort", sim::Resource::NetBw},
          Case{"spark", "kmeans", sim::Resource::MemBw}}) {
        auto victim = steady(c.family, c.variant, 0.9, rng);
        auto outcome = runRfa(victim, mcf, c.target, cm);
        EXPECT_LT(outcome.victimChange, -0.1)
            << c.family << ":" << c.variant;
        EXPECT_GT(outcome.beneficiaryGain, 0.0)
            << c.family << ":" << c.variant;
    }
}

TEST(CoResidency, PlacementProbabilityFormula)
{
    CoResidencyConfig cfg;
    cfg.servers = 40;
    cfg.probeVms = 10;
    cfg.maxWaves = 1;
    cfg.backgroundVms = 8;
    cfg.seed = 2;
    CoResidencyAttack attack(cfg);
    auto result = attack.run();
    EXPECT_NEAR(result.placementProbability,
                1.0 - std::pow(1.0 - 1.0 / 40.0, 10.0), 1e-12);
}

TEST(CoResidency, PinpointsVictimAcrossWaves)
{
    CoResidencyConfig cfg;
    cfg.maxWaves = 10;
    cfg.seed = 7;
    CoResidencyAttack attack(cfg);
    auto result = attack.run();
    EXPECT_TRUE(result.victimPinpointed);
    // Confirmation requires a clear latency jump over the public channel.
    EXPECT_GT(result.attackLatencyMs,
              result.baselineLatencyMs * kLatencyRatioThreshold);
    EXPECT_GE(result.wavesUsed, 1u);
    EXPECT_GT(result.adversaryVmsUsed, 1u);
    EXPECT_GT(result.detectionTimeSec, 0.0);
}

TEST(CoResidency, NoFalseConfirmationWithoutCoResidence)
{
    // With zero probes the sender never lands next to the victim, so
    // the receiver must not observe a latency jump.
    CoResidencyConfig cfg;
    cfg.probeVms = 0;
    cfg.maxWaves = 2;
    cfg.seed = 9;
    CoResidencyAttack attack(cfg);
    auto result = attack.run();
    EXPECT_FALSE(result.victimPinpointed);
    EXPECT_FALSE(result.probeCoResident);
    EXPECT_DOUBLE_EQ(result.attackLatencyMs, result.baselineLatencyMs);
}
