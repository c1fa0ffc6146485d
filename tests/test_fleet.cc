/**
 * @file
 * Fleet-layer property tests (tier1, small fleets):
 *
 *  - shard partitioning: shardOf/shardRange are a proper partition of
 *    the host range for any (hosts, shards) combination
 *  - shard-partition invariance: the run digest is byte-identical at
 *    1/4/16 shards x 1/8 pool threads over 32 derived seeds
 *  - VM conservation: per-epoch alive counts obey
 *    alive_e = alive_{e-1} + arrivals_e - departures_e and the
 *    residency audit passes after every epoch, under fault churn too
 *  - epoch-clock monotonicity under fault churn
 *  - VM slot recycling: dead slots are reused, so the VM table stays
 *    within one epoch's growth of the boot tenants while the fleet
 *    shrinks
 *  - boot drawn in blocks on the pool: a boot of several blocks and a
 *    ragged tail keeps its historical digest at 1 and 4 threads
 *  - the Wall-class stage timers: one sample per boot, decideEpoch and
 *    profileEpoch call when metrics are on, none when they are off
 *
 * The 100k-host scale lives in test_fleet_sweep (SLOW) and
 * bench/perf_fleet_scaling; nothing here should take more than a few
 * hundred milliseconds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/shard.h"
#include "util/seeds.h"
#include "util/thread_pool.h"

using namespace bolt;
using sim::FleetCluster;
using sim::FleetConfig;
using sim::FleetResult;

namespace {

/** Small-but-churny config the invariance properties sweep. */
FleetConfig
smallFleet(uint64_t seed)
{
    FleetConfig cfg;
    cfg.hosts = 48;
    cfg.tenants = 200;
    cfg.epochs = 4;
    cfg.arrivalsPerHostEpoch = 0.5;
    cfg.departureProb = 0.08;
    cfg.migrationProb = 0.05;
    cfg.hostFaultProb = 0.03;
    cfg.seed = seed;
    return cfg;
}

/** Run with a given shard count under a given pool width. */
FleetResult
runWith(FleetConfig cfg, size_t shards, unsigned threads)
{
    cfg.shards = shards;
    util::ThreadPool::setGlobalThreads(threads);
    FleetResult r = FleetCluster(cfg).run();
    util::ThreadPool::setGlobalThreads(0);
    return r;
}

} // namespace

TEST(FleetShard, ShardMapIsAPartition)
{
    for (size_t hosts : {1u, 2u, 7u, 16u, 33u, 100u}) {
        for (size_t shards : {1u, 2u, 3u, 5u, 16u, 64u}) {
            FleetConfig cfg;
            cfg.hosts = hosts;
            cfg.tenants = 0;
            cfg.shards = shards;
            FleetCluster fleet(cfg);
            // Requested shard counts above the host count clamp.
            EXPECT_GE(fleet.shards(), 1u);
            EXPECT_LE(fleet.shards(), hosts);
            size_t covered = 0;
            for (size_t s = 0; s < fleet.shards(); ++s) {
                auto [begin, end] = fleet.shardRange(s);
                EXPECT_EQ(begin, covered)
                    << "gap/overlap at shard " << s;
                EXPECT_GT(end, begin) << "empty shard " << s;
                for (size_t h = begin; h < end; ++h)
                    EXPECT_EQ(fleet.shardOf(h), s) << "host " << h;
                covered = end;
            }
            EXPECT_EQ(covered, hosts);
        }
    }
}

TEST(FleetShard, ShardSizesDifferByAtMostOne)
{
    FleetConfig cfg;
    cfg.hosts = 101;
    cfg.tenants = 0;
    cfg.shards = 7;
    FleetCluster fleet(cfg);
    size_t lo = cfg.hosts, hi = 0;
    for (size_t s = 0; s < fleet.shards(); ++s) {
        auto [begin, end] = fleet.shardRange(s);
        lo = std::min(lo, end - begin);
        hi = std::max(hi, end - begin);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(FleetInvariance, DigestIdenticalAcrossShardAndThreadCounts)
{
    // The tentpole property: over 32 derived seeds, every shard count x
    // thread count combination reproduces the 1-shard/1-thread digest
    // byte for byte. Only crossShard counts may differ.
    using util::seeds::derivedSeed;
    for (uint64_t i = 0; i < 32; ++i) {
        uint64_t seed = derivedSeed(2017, 0xF1EE7E57, i);
        FleetConfig cfg = smallFleet(seed);
        FleetResult base = runWith(cfg, 1, 1);
        ASSERT_FALSE(base.epochs.empty());
        for (size_t shards : {4u, 16u}) {
            for (unsigned threads : {1u, 8u}) {
                FleetResult r = runWith(cfg, shards, threads);
                ASSERT_EQ(r.digest, base.digest)
                    << "seed " << seed << " shards " << shards
                    << " threads " << threads;
                ASSERT_EQ(r.epochs.size(), base.epochs.size());
                for (size_t e = 0; e < r.epochs.size(); ++e) {
                    EXPECT_EQ(r.epochs[e].digest,
                              base.epochs[e].digest)
                        << "epoch " << e;
                    EXPECT_EQ(r.epochs[e].alive, base.epochs[e].alive);
                    EXPECT_EQ(r.epochs[e].migrations,
                              base.epochs[e].migrations);
                }
                EXPECT_EQ(r.vmsAlive, base.vmsAlive);
                EXPECT_EQ(r.migrations, base.migrations);
            }
        }
    }
}

TEST(FleetPlacement, DefaultPolicyPreservesHistoricalDigest)
{
    // Ring first-fit placement must not move a single bit of this run:
    // the digest was captured from the original FleetCluster for this
    // exact config.
    FleetResult r = runWith(smallFleet(2017), 1, 1);
    EXPECT_EQ(r.digest, 0x733ff1b2f17e6d09ull);
}

TEST(FleetInvariance, PooledBootKeepsItsDigestAtAnyThreadCount)
{
    // 9000 tenants fill part of one boot block; 67,587 fill two
    // blocks and a tail whose last task ends three streams into a
    // stream batch. The digests were captured from the sequential boot
    // that drew each tenant's size and start host while placing it.
    struct Case
    {
        size_t hosts, tenants;
        uint64_t digest;
    };
    for (const Case& c : {Case{1500, 9000, 0x27adc500bf72c367ull},
                          Case{4000, 67587, 0x5b99a546dc8ee5f2ull}}) {
        FleetConfig cfg;
        cfg.hosts = c.hosts;
        cfg.tenants = c.tenants;
        cfg.epochs = 1;
        cfg.seed = 2024;
        for (unsigned threads : {1u, 4u}) {
            FleetResult r = runWith(cfg, 3, threads);
            EXPECT_EQ(r.digest, c.digest)
                << c.tenants << " tenants, " << threads << " threads";
            EXPECT_EQ(r.vmsBooted, c.tenants);
        }
    }
}

TEST(FleetInvariance, DifferentSeedsProduceDifferentDigests)
{
    FleetResult a = runWith(smallFleet(1), 1, 1);
    FleetResult b = runWith(smallFleet(2), 1, 1);
    EXPECT_NE(a.digest, b.digest);
}

TEST(FleetConservation, AliveCountsBalanceEveryEpoch)
{
    // Migration moves VMs, never creates or destroys them: across
    // every epoch, alive_e - alive_{e-1} == arrivals_e - departures_e,
    // and the end-to-end totals reconcile against the boot count. The
    // per-epoch residency audit (validateEpochs) additionally proves
    // no VM is lost or duplicated across shard boundaries.
    for (uint64_t seed : {3u, 17u, 4242u}) {
        FleetConfig cfg = smallFleet(seed);
        cfg.validateEpochs = true;
        cfg.shards = 5;
        FleetResult r = FleetCluster(cfg).run();
        ASSERT_TRUE(r.consistent) << r.inconsistency;
        uint64_t prev = r.vmsBooted;
        for (size_t e = 0; e < r.epochs.size(); ++e) {
            const sim::FleetEpoch& ep = r.epochs[e];
            EXPECT_EQ(ep.alive,
                      prev + ep.arrivals - ep.departures)
                << "epoch " << e << " seed " << seed;
            EXPECT_LE(ep.crossShard, ep.migrations);
            prev = ep.alive;
        }
        EXPECT_EQ(r.vmsAlive, prev);
        EXPECT_EQ(r.vmsAlive,
                  r.vmsBooted + r.arrivals - r.departures);
    }
}

TEST(FleetConservation, DeadVmSlotsAreReused)
{
    // Departures outpace arrivals, with migrations and host faults, so
    // VMs die every epoch. The table may outgrow the boot tenants only
    // by what one epoch adds (its arrivals, plus a slot a failed
    // placement took); a table that reused no slot would grow by every
    // arrival.
    FleetConfig cfg;
    cfg.hosts = 64;
    cfg.tenants = 400;
    cfg.epochs = 6;
    cfg.arrivalsPerHostEpoch = 0.4;
    cfg.departureProb = 0.2;
    cfg.migrationProb = 0.05;
    cfg.hostFaultProb = 0.03;
    cfg.seed = 11;
    cfg.validateEpochs = true;
    FleetCluster fleet(cfg);
    FleetResult r = fleet.run();
    ASSERT_TRUE(r.consistent) << r.inconsistency;
    uint64_t prev = r.vmsBooted, one_epoch = 0;
    for (const sim::FleetEpoch& ep : r.epochs) {
        ASSERT_LE(ep.alive, prev) << "the fleet must shrink every epoch";
        prev = ep.alive;
        one_epoch = std::max(one_epoch, ep.arrivals + ep.placementFailures);
    }
    ASSERT_GT(r.arrivals, one_epoch) << "arrivals in one epoch only";
    EXPECT_LE(fleet.vmCount(), cfg.tenants + one_epoch);
}

TEST(FleetConservation, EndStateAuditPasses)
{
    FleetConfig cfg = smallFleet(9);
    cfg.shards = 3;
    FleetCluster fleet(cfg);
    fleet.run();
    std::string why;
    EXPECT_TRUE(fleet.validate(&why)) << why;
}

TEST(FleetClock, EpochClockIsMonotoneUnderFaultChurn)
{
    FleetConfig cfg = smallFleet(31);
    cfg.hostFaultProb = 0.25; // Heavy fault churn.
    cfg.epochs = 8;
    FleetResult r = FleetCluster(cfg).run();
    ASSERT_EQ(r.epochs.size(), 8u);
    double prev = 0.0;
    uint64_t faults = 0;
    for (const sim::FleetEpoch& ep : r.epochs) {
        EXPECT_GT(ep.t, prev) << "clock must strictly advance";
        EXPECT_NEAR(ep.t - prev, sim::kFleetEpochSec, 1e-9);
        prev = ep.t;
        faults += ep.hostFaults;
    }
    EXPECT_EQ(r.simSeconds, prev);
    EXPECT_GT(faults, 0u) << "fault churn should actually fire at 25%";
    EXPECT_EQ(r.hostFaults, faults);
}

TEST(FleetObs, StageTimersSampleEveryCallOnlyWhenEnabled)
{
    FleetConfig cfg = smallFleet(5);
    auto& metrics = obs::MetricsRegistry::global();
    auto count = [&](obs::MetricId id) {
        return metrics.snapshot().histogram(id).count;
    };
    metrics.reset();
    uint64_t digest = FleetCluster(cfg).run().digest;
    EXPECT_EQ(count(obs::MetricId::kFleetBootWallMs), 0u);

    metrics.setEnabled(true);
    EXPECT_EQ(FleetCluster(cfg).run().digest, digest);
    metrics.setEnabled(false);
    EXPECT_EQ(count(obs::MetricId::kFleetBootWallMs), 1u);
    EXPECT_EQ(count(obs::MetricId::kFleetDecideWallMs), 4u);
    EXPECT_EQ(count(obs::MetricId::kFleetProfileWallMs), 4u);
    metrics.reset();
}

TEST(FleetEdge, ZeroTenantsAndSingleHost)
{
    FleetConfig cfg;
    cfg.hosts = 1;
    cfg.tenants = 0;
    cfg.epochs = 2;
    cfg.arrivalsPerHostEpoch = 0.0;
    FleetResult r = FleetCluster(cfg).run();
    EXPECT_EQ(r.vmsBooted, 0u);
    EXPECT_EQ(r.vmsAlive, 0u);
    EXPECT_TRUE(r.consistent);
    EXPECT_EQ(r.epochs.size(), 2u);
}

TEST(FleetEdge, OverfullFleetReportsPlacementFailures)
{
    // More boot tenants than the fleet can hold: the surplus must land
    // in placementFailures, never silently vanish.
    FleetConfig cfg;
    cfg.hosts = 2;
    cfg.cores = 2;
    cfg.threadsPerCore = 1; // 2 slots per host, 4 total.
    cfg.maxVcpus = 1;
    cfg.tenants = 10;
    cfg.epochs = 1;
    cfg.arrivalsPerHostEpoch = 0.0;
    cfg.departureProb = 0.0;
    cfg.migrationProb = 0.0;
    FleetResult r = FleetCluster(cfg).run();
    EXPECT_EQ(r.vmsBooted, 4u);
    EXPECT_EQ(r.placementFailures, 6u);
    EXPECT_TRUE(r.consistent);
}
