/**
 * @file
 * Unit and property tests for the sim library: resource vectors, server
 * topology and placement, isolation visibility, contention aggregation,
 * and cluster bookkeeping.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/contention.h"
#include "sim/isolation.h"
#include "sim/resource.h"
#include "sim/server.h"
#include "util/thread_pool.h"

using namespace bolt::sim;


TEST(Resource, NamesRoundTrip)
{
    // Every resource has its own name: names identify resources.
    std::set<std::string> names;
    for (Resource r : kAllResources)
        names.insert(resourceName(r));
    EXPECT_EQ(names.size(), kNumResources);
}

TEST(Resource, CoreUncorePartition)
{
    size_t core = 0, uncore = 0;
    for (Resource r : kAllResources)
        (isCoreResource(r) ? core : uncore)++;
    EXPECT_EQ(core, kCoreResources.size());
    EXPECT_EQ(uncore, kUncoreResources.size());
    EXPECT_EQ(core + uncore, kNumResources);
}

TEST(ResourceVector, Arithmetic)
{
    ResourceVector c(10.0), b(20.0);
    c += b;
    EXPECT_DOUBLE_EQ(c[Resource::LLC], 30.0);
    EXPECT_DOUBLE_EQ(c.total(), 300.0);
}

TEST(ResourceVector, ClampAndDominant)
{
    ResourceVector v;
    v[Resource::MemBw] = 150.0;
    v[Resource::L1I] = -5.0;
    ResourceVector c = v.clamped();
    EXPECT_DOUBLE_EQ(c[Resource::MemBw], 100.0);
    EXPECT_DOUBLE_EQ(c[Resource::L1I], 0.0);
    EXPECT_EQ(c.dominant(), Resource::MemBw);
    auto order = c.byDecreasingPressure();
    EXPECT_EQ(order.front(), Resource::MemBw);
}

TEST(ResourceVector, VectorRoundTrip)
{
    ResourceVector v;
    v[Resource::NetBw] = 42.0;
    auto raw = v.toVector();
    EXPECT_EQ(raw.size(), kNumResources);
    EXPECT_EQ(ResourceVector::fromVector(raw).toVector(), raw);
    EXPECT_THROW(ResourceVector::fromVector({1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Server, PlacementSpreadsOneThreadPerCore)
{
    Server s(0);
    IsolationConfig iso;
    Tenant t{1, 4, true};
    ASSERT_TRUE(s.place(t, iso));
    // First tenant on an empty host gets one thread on each of 4 cores.
    auto cores = s.coresOf(1);
    EXPECT_EQ(cores.size(), 4u);
    EXPECT_EQ(s.freeSlots(), 12);
}

TEST(Server, SecondTenantSharesCores)
{
    Server s(0);
    IsolationConfig iso;
    ASSERT_TRUE(s.place(Tenant{1, 4, true}, iso));
    ASSERT_TRUE(s.place(Tenant{2, 2, false}, iso));
    // The second tenant lands on the free hyperthreads of the first's
    // cores, so they share physical cores on different threads.
    EXPECT_TRUE(s.shareCore(1, 2));
    EXPECT_FALSE(s.shareCore(1, 1));
}

TEST(Server, SiblingLookup)
{
    Server s(0);
    IsolationConfig iso;
    ASSERT_TRUE(s.place(Tenant{1, 4, true}, iso));
    ASSERT_TRUE(s.place(Tenant{2, 1, false}, iso));
    int shared_core = -1;
    for (int c = 0; c < s.cores(); ++c)
        if (s.siblingOn(c, 1) == 2)
            shared_core = c;
    ASSERT_GE(shared_core, 0);
    EXPECT_EQ(s.siblingOn(shared_core, 2), 1u);
}

TEST(Server, CapacityLimits)
{
    Server s(0, 2, 2); // 4 slots
    IsolationConfig iso;
    EXPECT_TRUE(s.place(Tenant{1, 3, false}, iso));
    EXPECT_FALSE(s.place(Tenant{2, 2, false}, iso));
    EXPECT_TRUE(s.place(Tenant{3, 1, false}, iso));
    EXPECT_EQ(s.freeSlots(), 0);
}

TEST(Server, RemoveFreesSlots)
{
    Server s(0);
    IsolationConfig iso;
    s.place(Tenant{1, 6, false}, iso);
    EXPECT_EQ(s.remove(1), 6);
    EXPECT_EQ(s.freeSlots(), 16);
    EXPECT_EQ(s.remove(1), 0);
    EXPECT_FALSE(s.tenant(1).has_value());
}

TEST(Server, CoreIsolationGrantsWholeCores)
{
    Server s(0);
    IsolationConfig iso;
    iso.coreIsolation = true;
    ASSERT_TRUE(s.place(Tenant{1, 3, false}, iso));
    // 3 vCPUs round up to 2 whole cores; no other tenant may share them.
    ASSERT_TRUE(s.place(Tenant{2, 2, false}, iso));
    EXPECT_FALSE(s.shareCore(1, 2));
    // placeableSlots only counts empty cores under core isolation.
    EXPECT_EQ(s.placeableSlots(iso), (8 - 2 - 1) * 2);
}

TEST(Server, DuplicateAndInvalidPlacement)
{
    Server s(0);
    IsolationConfig iso;
    s.place(Tenant{1, 2, false}, iso);
    EXPECT_THROW(s.place(Tenant{1, 2, false}, iso),
                 std::invalid_argument);
    EXPECT_THROW(s.place(Tenant{kNoTenant, 2, false}, iso),
                 std::invalid_argument);
    EXPECT_THROW(s.place(Tenant{5, 0, false}, iso),
                 std::invalid_argument);
}

TEST(Isolation, VisibilityWithinUnitInterval)
{
    for (Platform p : {Platform::Baremetal, Platform::Container,
                       Platform::VirtualMachine}) {
        for (const IsolationConfig& cfg :
             {IsolationConfig::none(p),
              IsolationConfig::withThreadPinning(p),
              IsolationConfig::withNetPartitioning(p),
              IsolationConfig::withMemBwPartitioning(p),
              IsolationConfig::withCachePartitioning(p),
              IsolationConfig::withCoreIsolation(p),
              IsolationConfig::coreIsolationOnly(p)}) {
            for (Resource r : kAllResources) {
                double v = cfg.crossVisibility(r);
                EXPECT_GE(v, 0.0);
                EXPECT_LE(v, 1.0);
            }
        }
    }
}

TEST(Isolation, LadderMonotonicallyAttenuates)
{
    // Each added mechanism may only reduce (or keep) visibility on every
    // resource — never increase it.
    for (Platform p : {Platform::Baremetal, Platform::Container,
                       Platform::VirtualMachine}) {
        std::vector<IsolationConfig> ladder = {
            IsolationConfig::none(p),
            IsolationConfig::withThreadPinning(p),
            IsolationConfig::withNetPartitioning(p),
            IsolationConfig::withMemBwPartitioning(p),
            IsolationConfig::withCachePartitioning(p),
        };
        for (size_t i = 0; i + 1 < ladder.size(); ++i)
            for (Resource r : kAllResources)
                EXPECT_LE(ladder[i + 1].crossVisibility(r),
                          ladder[i].crossVisibility(r) + 1e-12);
    }
}

TEST(Isolation, MechanismsTargetTheirResource)
{
    auto base = IsolationConfig::withThreadPinning(Platform::Container);
    auto net = IsolationConfig::withNetPartitioning(Platform::Container);
    // qdisc/HTB partitions egress only, so roughly half the contention
    // stays visible.
    EXPECT_LE(net.crossVisibility(Resource::NetBw),
              base.crossVisibility(Resource::NetBw) * 0.5);
    EXPECT_DOUBLE_EQ(net.crossVisibility(Resource::LLC),
                     base.crossVisibility(Resource::LLC));

    auto cache =
        IsolationConfig::withCachePartitioning(Platform::Container);
    EXPECT_LT(cache.crossVisibility(Resource::LLC), 0.15);
}

TEST(Isolation, SelfContentionPenalty)
{
    auto iso = IsolationConfig::coreIsolationOnly(Platform::Container);
    EXPECT_DOUBLE_EQ(iso.selfContentionPenalty(1), 1.0);
    EXPECT_NEAR(iso.selfContentionPenalty(2), 1.34, 1e-9);
    EXPECT_GT(iso.selfContentionPenalty(8),
              iso.selfContentionPenalty(2));
    auto none = IsolationConfig::none(Platform::Container);
    EXPECT_DOUBLE_EQ(none.selfContentionPenalty(8), 1.0);
}

TEST(Contention, UncoreAggregatesAcrossTenants)
{
    Server s(0);
    IsolationConfig iso = IsolationConfig::none(Platform::Baremetal);
    s.place(Tenant{1, 4, true}, iso);
    s.place(Tenant{2, 2, false}, iso);
    s.place(Tenant{3, 2, false}, iso);

    PressureMap pm;
    ResourceVector p2, p3;
    p2[Resource::NetBw] = 30.0;
    p3[Resource::NetBw] = 25.0;
    pm[2] = p2;
    pm[3] = p3;

    ContentionModel model(iso);
    ResourceVector ext = model.externalPressure(s, 1, pm);
    EXPECT_NEAR(ext[Resource::NetBw], 55.0, 1e-9);
}

TEST(Contention, CoreResourcesGatedByCoreSharing)
{
    Server s(0, 2, 2); // tiny host: adversary fills it
    IsolationConfig iso = IsolationConfig::none(Platform::Baremetal);
    s.place(Tenant{1, 2, true}, iso);  // cores 0,1 thread 0
    s.place(Tenant{2, 1, false}, iso); // shares core 0

    ContentionModel model(iso);
    PressureMap pm;
    ResourceVector p;
    p[Resource::L1I] = 60.0;
    pm[2] = p;
    EXPECT_GT(model.externalPressure(s, 1, pm)[Resource::L1I], 0.0);

    // A tenant on a dedicated host leaks no core pressure.
    Server lonely(1, 4, 2);
    lonely.place(Tenant{1, 2, true}, iso);
    Server other(2, 4, 2);
    other.place(Tenant{2, 1, false}, iso);
    EXPECT_DOUBLE_EQ(
        model.externalPressure(lonely, 1, pm)[Resource::L1I], 0.0);
}

TEST(Contention, CorePressureFromSpecificSibling)
{
    Server s(0);
    IsolationConfig iso = IsolationConfig::none(Platform::Baremetal);
    s.place(Tenant{1, 4, true}, iso);
    s.place(Tenant{2, 1, false}, iso);
    s.place(Tenant{3, 1, false}, iso);

    PressureMap pm;
    ResourceVector p2, p3;
    p2[Resource::L1D] = 40.0;
    p3[Resource::L1D] = 70.0;
    pm[2] = p2;
    pm[3] = p3;

    ContentionModel model(iso);
    // Each adversary core sees only its own sibling's pressure.
    std::vector<double> readings;
    for (int c : s.coresOf(1)) {
        double v =
            model.corePressureFrom(s, 1, c, Resource::L1D, pm);
        if (v > 0.0)
            readings.push_back(v);
    }
    ASSERT_EQ(readings.size(), 2u);
    std::sort(readings.begin(), readings.end());
    EXPECT_NEAR(readings[0], 40.0, 1e-9);
    EXPECT_NEAR(readings[1], 70.0, 1e-9);
    // Uncore resources report nothing through the core channel.
    EXPECT_DOUBLE_EQ(
        model.corePressureFrom(s, 1, s.coresOf(1)[0], Resource::LLC, pm),
        0.0);
}

TEST(Contention, SlowdownProperties)
{
    ContentionModel model(IsolationConfig::none(Platform::Baremetal));
    ResourceVector own(40.0), sens(0.8);

    // No overload: no slowdown.
    EXPECT_DOUBLE_EQ(model.slowdown(own, sens, ResourceVector(10.0)),
                     1.0);
    // Overload produces slowdown > 1 and grows with external pressure.
    double s1 = model.slowdown(own, sens, ResourceVector(70.0));
    double s2 = model.slowdown(own, sens, ResourceVector(90.0));
    EXPECT_GT(s1, 1.0);
    EXPECT_GT(s2, s1);
    // Insensitive tenants do not slow down.
    EXPECT_DOUBLE_EQ(
        model.slowdown(own, ResourceVector(), ResourceVector(90.0)), 1.0);
}

TEST(Contention, CpuUtilization)
{
    Server s(0);
    IsolationConfig iso;
    s.place(Tenant{1, 8, false}, iso);
    PressureMap pm;
    ResourceVector p;
    p[Resource::CPU] = 50.0;
    pm[1] = p;
    ContentionModel model(iso);
    // 8 of 16 threads at 50% CPU pressure => 25% host utilization.
    EXPECT_NEAR(model.cpuUtilization(s, pm), 25.0, 1e-9);
}

TEST(Cluster, PlaceLocateRemove)
{
    Cluster c(3);
    TenantId id = c.nextTenantId();
    EXPECT_TRUE(c.placeOn(1, Tenant{id, 4, false}));
    EXPECT_EQ(c.locate(id), std::optional<size_t>{1});
    EXPECT_TRUE(c.remove(id));
    EXPECT_FALSE(c.locate(id).has_value());
    EXPECT_FALSE(c.remove(id));
}

TEST(Cluster, CapacityQueries)
{
    Cluster c(2, 2, 2); // 2 hosts x 4 slots
    c.placeOn(0, Tenant{c.nextTenantId(), 3, false});
    EXPECT_EQ(c.serversWithCapacity(2), (std::vector<size_t>{1}));
    EXPECT_EQ(c.serversWithCapacity(1).size(), 2u);
}

TEST(Cluster, TenantIdsNeverRepeat)
{
    Cluster c(1);
    TenantId a = c.nextTenantId();
    TenantId b = c.nextTenantId();
    EXPECT_NE(a, b);
}

// The per-server fan-out ControlledExperiment::run makes: one grain-1
// parallelFor over the cluster's hosts.
TEST(Cluster, ForEachServerEmptyCluster)
{
    Cluster c(0);
    EXPECT_EQ(c.size(), 0u);
    std::atomic<int> visits{0};
    bolt::util::parallelFor(0, c.size(), [&](size_t) { ++visits; }, 1);
    EXPECT_EQ(visits.load(), 0);
}

TEST(Cluster, ForEachServerFewerHostsThanThreads)
{
    // More pool workers than hosts: every host must still be visited
    // exactly once.
    bolt::util::ThreadPool::setGlobalThreads(8);
    Cluster c(3);
    std::vector<std::atomic<int>> visits(c.size());
    bolt::util::parallelFor(
        0, c.size(),
        [&](size_t i) {
            ASSERT_LT(i, c.size());
            EXPECT_EQ(c.server(i).id(), i);
            ++visits[i];
        },
        1);
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "host " << i;
    bolt::util::ThreadPool::setGlobalThreads(0);
}

/** Property sweep: every tenant's visible pressure never exceeds the
 * raw pressure it exerts, for any isolation config. */
class VisibilityBoundTest : public ::testing::TestWithParam<int>
{
};

TEST_P(VisibilityBoundTest, VisibleNeverExceedsRaw)
{
    auto p = static_cast<Platform>(GetParam() % 3);
    IsolationConfig iso = GetParam() < 3
                              ? IsolationConfig::none(p)
                              : IsolationConfig::withCachePartitioning(p);
    Server s(0);
    s.place(Tenant{1, 4, true}, iso);
    s.place(Tenant{2, 4, false}, iso);
    ContentionModel model(iso);
    PressureMap pm;
    pm[2] = ResourceVector(80.0);
    ResourceVector ext = model.externalPressure(s, 1, pm);
    for (Resource r : kAllResources) {
        EXPECT_LE(ext[r], 80.0 + 1e-9);
        EXPECT_GE(ext[r], 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Platforms, VisibilityBoundTest,
                         ::testing::Range(0, 6));
