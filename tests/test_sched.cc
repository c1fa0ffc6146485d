/**
 * @file
 * Unit tests for the sched library: least-loaded and Quasar-style
 * placement, random placement, and the live-migration defense.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/scheduler.h"
#include "util/seeds.h"
#include "workloads/catalog.h"

using namespace bolt;
using namespace bolt::sched;

namespace {

workloads::AppSpec
specFor(const char* family, util::Rng& rng)
{
    const auto* f = workloads::findFamily(family);
    return workloads::instantiate(*f, f->variants[0], "M", rng);
}

} // namespace

TEST(LeastLoaded, PrefersEmptiestServer)
{
    sim::Cluster cluster(3);
    util::Rng rng(1);
    auto spec = specFor("memcached", rng);

    // Pre-load server 0 heavily and server 1 lightly.
    cluster.placeOn(0, sim::Tenant{cluster.nextTenantId(), 10, false});
    cluster.placeOn(1, sim::Tenant{cluster.nextTenantId(), 2, false});

    LeastLoadedScheduler ll;
    auto pick = ll.pick(cluster, spec, 2);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 2u);
}

TEST(LeastLoaded, ReturnsNulloptWhenFull)
{
    sim::Cluster cluster(1, 2, 2);
    cluster.placeOn(0, sim::Tenant{cluster.nextTenantId(), 4, false});
    LeastLoadedScheduler ll;
    util::Rng rng(2);
    auto spec = specFor("mysql", rng);
    EXPECT_FALSE(ll.pick(cluster, spec, 1).has_value());
}

TEST(LeastLoaded, UsesRecordedFootprintForTies)
{
    sim::Cluster cluster(2);
    util::Rng rng(3);
    LeastLoadedScheduler ll;

    // Same slot usage on both servers, but server 0 carries a heavier
    // recorded footprint.
    auto heavy = specFor("spark", rng);
    auto light = specFor("email", rng);
    sim::TenantId a = cluster.nextTenantId();
    cluster.placeOn(0, sim::Tenant{a, 2, false});
    ll.record(a, 0, heavy);
    sim::TenantId b = cluster.nextTenantId();
    cluster.placeOn(1, sim::Tenant{b, 2, false});
    ll.record(b, 1, light);

    auto pick = ll.pick(cluster, specFor("mysql", rng), 2);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u);
}

TEST(Quasar, AvoidsProfileOverlap)
{
    sim::Cluster cluster(2);
    util::Rng rng(4);
    QuasarScheduler quasar;

    // Server 0 hosts a memory-bound Spark job; server 1 hosts a
    // disk-bound Hadoop sort. An incoming Spark job should avoid the
    // Spark-loaded server.
    auto spark = specFor("spark", rng); // kmeans: memory-bound
    const auto* hf = workloads::findFamily("hadoop");
    auto sort = workloads::instantiate(*hf, hf->variants[5], "M", rng);

    sim::TenantId a = cluster.nextTenantId();
    cluster.placeOn(0, sim::Tenant{a, 4, false});
    quasar.record(a, 0, spark);
    sim::TenantId b = cluster.nextTenantId();
    cluster.placeOn(1, sim::Tenant{b, 4, false});
    quasar.record(b, 1, sort);

    auto pick = quasar.pick(cluster, specFor("spark", rng), 2);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 1u);
}

TEST(Quasar, ForgetReleasesFootprint)
{
    sim::Cluster cluster(2);
    util::Rng rng(5);
    QuasarScheduler quasar;
    auto spark = specFor("spark", rng);
    sim::TenantId a = cluster.nextTenantId();
    cluster.placeOn(0, sim::Tenant{a, 4, false});
    quasar.record(a, 0, spark);
    quasar.forget(a);
    cluster.remove(a);
    // With the record gone, both servers look equal; the tie breaks
    // toward more free slots, which is now identical — either is fine,
    // but pick must succeed.
    EXPECT_TRUE(quasar.pick(cluster, spark, 2).has_value());
}

TEST(Random, PicksOnlyFeasibleServers)
{
    sim::Cluster cluster(3, 2, 2);
    cluster.placeOn(0, sim::Tenant{cluster.nextTenantId(), 4, false});
    cluster.placeOn(1, sim::Tenant{cluster.nextTenantId(), 3, false});
    RandomScheduler random{6};
    util::Rng rng(7);
    auto spec = specFor("mysql", rng);
    for (int i = 0; i < 20; ++i) {
        auto pick = random.pick(cluster, spec, 2);
        ASSERT_TRUE(pick.has_value());
        EXPECT_EQ(*pick, 2u); // the only host with 2 free slots
    }
}

TEST(Random, NulloptWhenNothingFits)
{
    sim::Cluster cluster(1, 1, 1);
    cluster.placeOn(0, sim::Tenant{cluster.nextTenantId(), 1, false});
    RandomScheduler random{8};
    util::Rng rng(9);
    EXPECT_FALSE(
        random.pick(cluster, specFor("email", rng), 1).has_value());
}

TEST(Migration, TriggersOnThreshold)
{
    MigrationController m(70.0, 8.0);
    EXPECT_FALSE(m.sample(0.0, 50.0));
    EXPECT_TRUE(m.sample(1.0, 80.0));
    EXPECT_TRUE(m.migrating(1.0));
    EXPECT_TRUE(m.migrating(8.9));
    EXPECT_FALSE(m.migrating(9.0));
    EXPECT_TRUE(m.migrated(9.0));
    // One migration per controller: further samples do nothing.
    EXPECT_FALSE(m.sample(10.0, 99.0));
}

TEST(Migration, SustainedThresholdRequired)
{
    MigrationController m(70.0, 8.0, 5.0);
    // A transient spike does not trigger.
    EXPECT_FALSE(m.sample(0.0, 90.0));
    EXPECT_FALSE(m.sample(1.0, 50.0));
    // The run restarts; five sustained seconds are needed.
    for (double t = 2.0; t < 7.0; t += 1.0)
        EXPECT_FALSE(m.sample(t, 90.0));
    EXPECT_TRUE(m.sample(7.0, 90.0));
    EXPECT_TRUE(m.migrating(7.5));
    EXPECT_TRUE(m.migrated(15.0));
}

TEST(Migration, NeverTriggersBelowThreshold)
{
    MigrationController m(70.0, 8.0);
    for (double t = 0; t < 100; t += 1.0)
        EXPECT_FALSE(m.sample(t, 69.9));
    EXPECT_FALSE(m.migrated(200.0));
}

// ------------------------------------------------------------------
// Pick determinism. The experiment and serving layers assume scheduler
// decisions are pure functions of the recorded state — never of memory
// layout, pointer order, or the order record() calls happened to
// arrive in.
// ------------------------------------------------------------------

namespace {

/**
 * Drive one fixed placement scenario: a rotating family mix placed
 * wherever the policy says, with record() after every landing.
 * @return the pick sequence (-1 marks a no-fit).
 */
std::vector<int>
pickSequence(PlacementPolicy& sched, uint64_t seed)
{
    sim::Cluster cluster(6, 4, 2); // 8 threads per host
    util::Rng rng(seed);
    static const char* kFamilies[] = {"memcached", "spark", "mysql",
                                      "email", "hadoop"};
    std::vector<int> picks;
    for (int i = 0; i < 30; ++i) {
        auto spec = specFor(kFamilies[i % 5], rng);
        auto pick = sched.pick(cluster, spec, 2);
        if (!pick.has_value()) {
            picks.push_back(-1);
            continue;
        }
        picks.push_back(static_cast<int>(*pick));
        sim::TenantId id = cluster.nextTenantId();
        cluster.placeOn(*pick, sim::Tenant{id, 2, false});
        sched.record(id, *pick, spec);
    }
    return picks;
}

} // namespace

TEST(PickDeterminism, LeastLoadedSequenceIsRepeatIdentical)
{
    LeastLoadedScheduler a, b;
    EXPECT_EQ(pickSequence(a, 21), pickSequence(b, 21));
}

TEST(PickDeterminism, QuasarSequenceIsRepeatIdentical)
{
    QuasarScheduler a, b;
    EXPECT_EQ(pickSequence(a, 22), pickSequence(b, 22));
}

TEST(PickDeterminism, RecordOrderDoesNotChangeTheNextPick)
{
    // Same four residents recorded forward vs reversed: the policy's
    // view (placements_ is keyed by tenant id) must be identical, so
    // the next pick must be too.
    util::Rng rng(23);
    struct Resident
    {
        sim::TenantId id;
        size_t server;
        workloads::AppSpec spec;
    };
    sim::Cluster proto(4, 4, 2);
    std::vector<Resident> residents;
    const char* fams[] = {"spark", "mysql", "hadoop", "email"};
    for (size_t i = 0; i < 4; ++i)
        residents.push_back(
            {proto.nextTenantId(), i, specFor(fams[i], rng)});

    auto nextPick = [&](bool reversed) {
        sim::Cluster cluster(4, 4, 2);
        QuasarScheduler sched;
        auto order = residents;
        if (reversed)
            std::reverse(order.begin(), order.end());
        for (const auto& r : order) {
            cluster.placeOn(r.server,
                            sim::Tenant{r.id, 2, false});
            sched.record(r.id, r.server, r.spec);
        }
        util::Rng qr(24);
        return sched.pick(cluster, specFor("spark", qr), 2);
    };
    auto forward = nextPick(false);
    auto reversed = nextPick(true);
    ASSERT_TRUE(forward.has_value());
    ASSERT_TRUE(reversed.has_value());
    EXPECT_EQ(*forward, *reversed);
}

TEST(PickDeterminism, RandomSchedulerIsSeedDeterministic)
{
    RandomScheduler a{31};
    RandomScheduler b{31};
    EXPECT_EQ(pickSequence(a, 25), pickSequence(b, 25));

    // A different placement seed draws a different (but still
    // deterministic) sequence over 6 feasible hosts.
    RandomScheduler c{31};
    RandomScheduler d{77};
    EXPECT_NE(pickSequence(c, 25), pickSequence(d, 25));
}

TEST(PickDeterminism, RandomSchedulerDrawsAreCounterKeyed)
{
    // The k-th decision is a pure function of (seed, k, candidate
    // set) — never of a stateful engine. Pin the contract directly:
    // every pick must equal the counter-based stream draw over the
    // ascending feasible candidate list.
    sim::Cluster cluster(5, 2, 2);
    RandomScheduler random{91};
    util::Rng rng(92);
    auto spec = specFor("memcached", rng);
    for (uint64_t k = 0; k < 12; ++k) {
        auto candidates = cluster.serversWithCapacity(2);
        ASSERT_FALSE(candidates.empty());
        auto pick = random.pick(cluster, spec, 2);
        ASSERT_TRUE(pick.has_value());
        util::Rng stream = util::Rng::stream(
            91, {util::seeds::kSchedRandomPick, k});
        EXPECT_EQ(*pick, candidates[stream.index(candidates.size())])
            << "decision " << k;
        // Mutate the cluster between decisions so the candidate set
        // keeps changing shape (and occasionally shrinks).
        if (k % 3 == 0)
            cluster.placeOn(*pick,
                            sim::Tenant{cluster.nextTenantId(), 1,
                                        false});
    }
}

TEST(PickDeterminism, RandomSchedulerReplayIsOrderIndependent)
{
    // Two schedulers with the same seed reach decision 3 through
    // different histories (different clusters, different candidate-set
    // sizes along the way). Under a stateful engine the draw at
    // decision 3 would depend on that history; under counter-based
    // streams it only depends on (seed, 3, candidates).
    util::Rng rng(93);
    auto spec = specFor("mysql", rng);

    RandomScheduler a{55};
    sim::Cluster wideA(8, 4, 2);
    for (int k = 0; k < 3; ++k)
        ASSERT_TRUE(a.pick(wideA, spec, 2).has_value());

    RandomScheduler b{55};
    sim::Cluster wideB(3, 2, 2); // different shape, same decision count
    for (int k = 0; k < 3; ++k)
        ASSERT_TRUE(b.pick(wideB, spec, 2).has_value());

    sim::Cluster shared(6, 4, 2);
    auto pa = a.pick(shared, spec, 2);
    auto pb = b.pick(shared, spec, 2);
    ASSERT_TRUE(pa.has_value());
    ASSERT_TRUE(pb.has_value());
    EXPECT_EQ(*pa, *pb);
}

// ------------------------------------------------------------------
// Constraint handling on the refactored PlacementPolicy interface.
// ------------------------------------------------------------------

TEST(PlacementConstraints, AvoidIsHardAntiAffinity)
{
    sim::Cluster cluster(4);
    LeastLoadedScheduler ll;
    util::Rng rng(41);
    PlacementRequest req;
    req.spec = specFor("memcached", rng);
    req.vcpus = 2;
    req.constraints.avoid = {0, 1, 2};
    auto pick = ll.place(cluster, req);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 3u);
    req.constraints.avoid = {0, 1, 2, 3};
    EXPECT_FALSE(ll.place(cluster, req).has_value());
}

TEST(PlacementConstraints, AffinityNarrowsWhenFeasible)
{
    sim::Cluster cluster(4);
    LeastLoadedScheduler ll;
    util::Rng rng(42);
    PlacementRequest req;
    req.spec = specFor("mysql", rng);
    req.vcpus = 2;
    // Server 2 is feasible and preferred: the pick must land there even
    // though server 0 scores higher unconstrained.
    req.constraints.affinity = {2};
    auto pick = ll.place(cluster, req);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 2u);
}

TEST(PlacementConstraints, AffinityFallsBackWhenInfeasible)
{
    sim::Cluster cluster(3, 2, 2);
    cluster.placeOn(2, sim::Tenant{cluster.nextTenantId(), 4, false});
    LeastLoadedScheduler ll;
    util::Rng rng(43);
    PlacementRequest req;
    req.spec = specFor("email", rng);
    req.vcpus = 2;
    req.constraints.affinity = {2}; // full: soft preference falls back
    auto pick = ll.place(cluster, req);
    ASSERT_TRUE(pick.has_value());
    EXPECT_NE(*pick, 2u);
}

TEST(PlacementConstraints, ReplicaSpreadCoversDistinctServers)
{
    sim::Cluster cluster(5, 4, 2);
    LeastLoadedScheduler ll;
    util::Rng rng(44);
    PlacementRequest req;
    req.spec = specFor("memcached", rng);
    req.vcpus = 2;
    req.constraints.replicas = 4;
    req.constraints.hint = PlacementHint::Spread;
    auto commit = [&](size_t server) {
        sim::Tenant t{cluster.nextTenantId(), 2, false};
        return cluster.placeOn(server, t) ? t.id : sim::kNoTenant;
    };
    auto servers = placeReplicaSet(ll, cluster, req, commit);
    ASSERT_EQ(servers.size(), 4u);
    std::vector<size_t> uniq = servers;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_EQ(uniq.size(), 4u) << "spread replicas must not co-locate";
}

TEST(PlacementConstraints, ReplicaPackCoLocatesWhileFeasible)
{
    sim::Cluster cluster(4, 4, 2); // 8 slots per server
    LeastLoadedScheduler ll;
    util::Rng rng(45);
    PlacementRequest req;
    req.spec = specFor("email", rng);
    req.vcpus = 2;
    req.constraints.replicas = 3;
    req.constraints.hint = PlacementHint::Pack;
    auto commit = [&](size_t server) {
        sim::Tenant t{cluster.nextTenantId(), 2, false};
        return cluster.placeOn(server, t) ? t.id : sim::kNoTenant;
    };
    auto servers = placeReplicaSet(ll, cluster, req, commit);
    ASSERT_EQ(servers.size(), 3u);
    EXPECT_EQ(servers[1], servers[0]);
    EXPECT_EQ(servers[2], servers[0]);
}

// ------------------------------------------------------------------
// MigrationController edge-case properties over 32 derived seeds.
// ------------------------------------------------------------------

TEST(MigrationEdge, PropertyOverDerivedSeeds)
{
    // Over 32 derived utilization traces: (a) at most one trigger per
    // controller, (b) a trigger only fires after `sustain` consecutive
    // over-threshold seconds, (c) migrating/migrated windows partition
    // time after the trigger and never overlap.
    using util::seeds::derivedSeed;
    for (uint64_t i = 0; i < 32; ++i) {
        util::Rng rng(derivedSeed(2026, 0x516AA7E5, i));
        double sustain =
            static_cast<double>(rng.uniformInt(0, 2)) * 2.5;
        MigrationController m(70.0, 8.0, sustain);
        int triggers = 0;
        double triggerAt = -1.0;
        double overRun = 0.0;
        for (double t = 0.0; t < 120.0; t += 1.0) {
            double util = rng.uniform(40.0, 100.0);
            bool fired = m.sample(t, util);
            if (util > 70.0)
                overRun += 1.0;
            else
                overRun = 0.0;
            if (fired) {
                ++triggers;
                triggerAt = t;
                EXPECT_GE(overRun - 1.0, sustain)
                    << "seed " << i << " t " << t;
            }
            EXPECT_FALSE(m.migrating(t) && m.migrated(t));
        }
        EXPECT_LE(triggers, 1) << "seed " << i;
        if (triggers == 1) {
            EXPECT_TRUE(m.migrating(triggerAt));
            EXPECT_TRUE(m.migrated(triggerAt + 8.0));
            EXPECT_FALSE(m.migrating(triggerAt + 8.0));
        } else {
            EXPECT_FALSE(m.migrated(1e9));
        }
    }
}
