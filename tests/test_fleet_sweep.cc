/**
 * @file
 * Fleet-scale invariance sweep (SLOW): the same shard/thread digest
 * invariance test_fleet pins at toy scale, re-proven on a fleet large
 * enough that shard partitioning, chunk claiming across workers and
 * the per-shard profiling fan-out all actually matter. The 100k+ host curve lives in
 * bench/perf_fleet_scaling; this suite stays just below that so plain
 * `ctest` remains usable on a laptop.
 */
#include <gtest/gtest.h>

#include "sim/shard.h"
#include "util/thread_pool.h"

using namespace bolt;
using sim::FleetCluster;
using sim::FleetConfig;
using sim::FleetResult;

namespace {

FleetConfig
bigFleet(uint64_t seed)
{
    FleetConfig cfg;
    cfg.hosts = 32768;
    cfg.tenants = 131072;
    cfg.epochs = 3;
    cfg.arrivalsPerHostEpoch = 0.3;
    cfg.departureProb = 0.05;
    cfg.migrationProb = 0.03;
    cfg.hostFaultProb = 0.01;
    cfg.seed = seed;
    return cfg;
}

} // namespace

TEST(FleetSweep, LargeFleetDigestInvariance)
{
    FleetConfig cfg = bigFleet(77);
    util::ThreadPool::setGlobalThreads(1);
    cfg.shards = 1;
    FleetResult base = FleetCluster(cfg).run();
    ASSERT_TRUE(base.consistent);
    ASSERT_GT(base.vmsAlive, 0u);
    for (size_t shards : {16u, 256u}) {
        for (unsigned threads : {1u, 8u}) {
            util::ThreadPool::setGlobalThreads(threads);
            cfg.shards = shards;
            FleetResult r = FleetCluster(cfg).run();
            EXPECT_EQ(r.digest, base.digest)
                << "shards " << shards << " threads " << threads;
            EXPECT_EQ(r.vmsAlive, base.vmsAlive);
            EXPECT_EQ(r.migrations, base.migrations);
            EXPECT_EQ(r.hostFaults, base.hostFaults);
        }
    }
    util::ThreadPool::setGlobalThreads(0);
}

TEST(FleetSweep, LargeFleetConservation)
{
    FleetConfig cfg = bigFleet(78);
    cfg.shards = 64;
    cfg.validateEpochs = true;
    util::ThreadPool::setGlobalThreads(8);
    FleetResult r = FleetCluster(cfg).run();
    util::ThreadPool::setGlobalThreads(0);
    ASSERT_TRUE(r.consistent) << r.inconsistency;
    EXPECT_EQ(r.vmsAlive, r.vmsBooted + r.arrivals - r.departures);
}
