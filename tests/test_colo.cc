/**
 * @file
 * Placement arms-race tests (src/colo):
 *
 *  - tournament determinism: the full default tournament digest is
 *    byte-identical across runs and at 1 vs 8 pool threads, and the
 *    arms-race self-check gates pass at the shipped defaults
 *  - oracle soundness: no false positives off the victim host, a true
 *    positive on it
 *  - attacker bookkeeping: refuted hosts are never re-probed, refuted
 *    probes are torn down, a confirmed probe stays beside the victim
 *  - defense policies: picks always land inside the feasible candidate
 *    set; SecureAllocator::reactiveStep edges (full cluster with zero
 *    eligible targets, every-host-hot runs bounded by the budget at one
 *    migration per pass, tenant departed mid-decision)
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "colo/attacker.h"
#include "colo/policies.h"
#include "colo/tournament.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/thread_pool.h"
#include "workloads/catalog.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

/** Victim spec matching the tournament's (mysql, first variant, M). */
workloads::AppSpec
victimSpec(uint64_t seed)
{
    const workloads::FamilyDef* sql = workloads::findFamily("mysql");
    util::Rng rng(seed);
    workloads::AppSpec spec =
        workloads::instantiate(*sql, sql->variants[0], "M", rng);
    spec.pattern = workloads::LoadPattern::constant(0.85);
    return spec;
}

/** Place the victim on `host` and return (id, oracle-ready spec). */
sim::Tenant
placeVictim(sim::Cluster& cluster, const workloads::AppSpec& spec,
            size_t host)
{
    sim::Tenant victim{cluster.nextTenantId(), spec.vcpus, false};
    EXPECT_TRUE(cluster.placeOn(host, victim));
    return victim;
}

/** Run the default tournament under a given pool width. */
colo::TournamentResult
runTournamentWith(unsigned threads)
{
    util::ThreadPool::setGlobalThreads(threads);
    colo::TournamentResult r = colo::runTournament(colo::TournamentConfig{});
    util::ThreadPool::setGlobalThreads(0);
    return r;
}

/**
 * Test policy that always picks the first feasible candidate and logs
 * every pick, so probe-sweep bookkeeping is observable from outside.
 */
class FirstFitRecorder : public sched::PlacementPolicy
{
  public:
    const char* name() const override { return "first-fit-recorder"; }
    std::vector<size_t> picks;

  protected:
    double score(const sim::Cluster&, const sched::PlacementRequest&,
                 size_t server) const override
    {
        return -static_cast<double>(server);
    }
    std::optional<size_t>
    pickFrom(const sim::Cluster& cluster, const sched::PlacementRequest& req,
             const std::vector<size_t>& candidates) override
    {
        std::optional<size_t> h =
            sched::PlacementPolicy::pickFrom(cluster, req, candidates);
        if (h)
            picks.push_back(*h);
        return h;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Tournament determinism

TEST(ColoTournament, DigestThreadInvariantAndSelfCheckPasses)
{
    colo::TournamentResult one = runTournamentWith(1);
    colo::TournamentResult eight = runTournamentWith(8);

    ASSERT_EQ(one.cells.size(), eight.cells.size());
    for (size_t i = 0; i < one.cells.size(); ++i)
        EXPECT_EQ(one.cells[i].digest, eight.cells[i].digest)
            << "cell " << i << " ("
            << colo::attackerName(one.cells[i].attacker) << " x "
            << colo::policyName(one.cells[i].policy) << "@"
            << one.cells[i].utilLevel << "%)";
    EXPECT_EQ(one.digest, eight.digest);

    EXPECT_EQ(colo::tournamentSelfCheck(colo::TournamentConfig{}, one), "");
}

// ---------------------------------------------------------------------
// Oracle

TEST(ColoOracle, NoFalsePositivesOffVictimTruePositiveOn)
{
    sim::Cluster cluster(4);
    workloads::AppSpec spec = victimSpec(7);
    sim::Tenant victim = placeVictim(cluster, spec, 2);

    colo::CoResidencyOracle oracle(cluster, spec, victim.id, 99);

    // The baseline is noise-free, so an un-slowed measurement can never
    // cross baseline x 2 regardless of the per-check jitter draw.
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(oracle.confirm(0));
        EXPECT_FALSE(oracle.confirm(1));
        EXPECT_FALSE(oracle.confirm(3));
    }
    // A co-resident sender saturates the victim's sensitive resources:
    // mysql's contention slowdown clears the 2x latency threshold.
    EXPECT_TRUE(oracle.confirm(2));
    EXPECT_EQ(oracle.victimHost(), std::optional<size_t>(2));
}

TEST(ColoOracle, TracksVictimAcrossMigration)
{
    sim::Cluster cluster(4);
    workloads::AppSpec spec = victimSpec(7);
    sim::Tenant victim = placeVictim(cluster, spec, 0);
    colo::CoResidencyOracle oracle(cluster, spec, victim.id, 5);

    EXPECT_TRUE(oracle.confirm(0));
    cluster.remove(victim.id);
    ASSERT_TRUE(cluster.placeOn(3, victim));
    EXPECT_FALSE(oracle.confirm(0)); // Stale knowledge after migration.
    EXPECT_TRUE(oracle.confirm(3));
}

// ---------------------------------------------------------------------
// Attacker bookkeeping

TEST(ColoAttacker, RuledOutHostsAreNeverReprobed)
{
    // No victim anywhere (the id is never placed), so every probe is
    // refuted and its host ruled out: across the whole campaign no host
    // may be probed twice. Each host has 2 slots, so one 2-vCPU probe
    // fills it: no within-wave reuse.
    sim::Cluster cluster(12, 1, 2);
    workloads::AppSpec spec = victimSpec(7);
    colo::CoResidencyOracle oracle(cluster, spec, cluster.nextTenantId(),
                                   11);
    FirstFitRecorder policy;

    colo::AttackerConfig cfg;
    cfg.kind = colo::AttackerKind::Churn;
    cfg.probesPerWave = 3;
    cfg.waves = 3;
    colo::ColoAttacker attacker(cfg, 17);
    colo::CampaignResult res = attacker.run(cluster, policy, oracle);

    EXPECT_FALSE(res.pinpointed);
    EXPECT_EQ(res.launches, 9u);
    std::set<size_t> unique(policy.picks.begin(), policy.picks.end());
    EXPECT_EQ(unique.size(), policy.picks.size())
        << "a ruled-out host was probed again";
}

TEST(ColoAttacker, RefutedProbesTearDownConfirmedProbeStays)
{
    sim::Cluster cluster(8);
    workloads::AppSpec spec = victimSpec(7);
    sim::Tenant victim = placeVictim(cluster, spec, 4);
    colo::CoResidencyOracle oracle(cluster, spec, victim.id, 3);
    FirstFitRecorder policy;
    policy.record(victim.id, 4, spec);

    colo::AttackerConfig cfg;
    cfg.kind = colo::AttackerKind::Churn;
    cfg.probesPerWave = 1;
    cfg.waves = 6;
    colo::ColoAttacker attacker(cfg, 21);
    colo::CampaignResult res = attacker.run(cluster, policy, oracle);

    // First-fit sweeps one host per wave: hosts 0..3 are refuted and
    // ruled out, the wave-5 probe lands beside the victim on host 4.
    EXPECT_TRUE(res.pinpointed);
    EXPECT_EQ(res.wavesUsed, 5);

    // Exactly one adversarial tenant survives, co-resident with the
    // victim; every refuted probe was removed.
    size_t adversarial = 0, beside_victim = 0;
    for (size_t i = 0; i < cluster.size(); ++i)
        for (const sim::Tenant& t : cluster.server(i).tenants())
            if (t.adversarial) {
                ++adversarial;
                if (i == 4)
                    ++beside_victim;
            }
    EXPECT_EQ(adversarial, 1u);
    EXPECT_EQ(beside_victim, 1u);
}

// ---------------------------------------------------------------------
// Defense policies

TEST(ColoPolicies, MabAndSecurePicksStayWithinFeasibleSet)
{
    sim::Cluster cluster(6);
    workloads::AppSpec spec = victimSpec(7);

    colo::MabScheduler mab(31);
    colo::SecureAllocator secure(37);
    for (sched::PlacementPolicy* policy :
         {static_cast<sched::PlacementPolicy*>(&mab),
          static_cast<sched::PlacementPolicy*>(&secure)}) {
        EXPECT_FALSE(policy->honorsAffinity());
        for (int i = 0; i < 32; ++i) {
            sched::PlacementRequest req;
            req.spec = spec;
            req.vcpus = 2;
            req.constraints.avoid = {0, 3};
            std::optional<size_t> host = policy->place(cluster, req);
            ASSERT_TRUE(host);
            EXPECT_NE(*host, 0u);
            EXPECT_NE(*host, 3u);
            EXPECT_GE(cluster.server(*host).placeableSlots(
                          cluster.isolation()),
                      2);
        }
    }
}

TEST(ColoSecureAllocator, ReactiveStepSkipsWhenNoEligibleTarget)
{
    // Both hosts completely full: every trigger has zero feasible
    // destinations, so the pass must do nothing (and not crash).
    sim::Cluster cluster(2, 2, 2);
    colo::SecureAllocator secure(41);
    workloads::AppSpec spec = victimSpec(7);
    std::vector<sim::TenantId> ids;
    for (size_t h = 0; h < cluster.size(); ++h) {
        sim::Tenant t{cluster.nextTenantId(), 4, false};
        ASSERT_TRUE(cluster.placeOn(h, t));
        secure.record(t.id, h, spec);
        ids.push_back(t.id);
    }
    EXPECT_EQ(secure.reactiveStep(cluster, 1.0), 0u);
    EXPECT_EQ(secure.migrationsUsed(), 0);
    EXPECT_EQ(cluster.locate(ids[1]), std::optional<size_t>(1));
}

TEST(ColoSecureAllocator, AllHostsHotIsBoundedByBudgetOnePerPass)
{
    sim::Cluster cluster(6);
    colo::SecureAllocator secure(43);
    workloads::AppSpec spec = victimSpec(7);
    // Every host above the 20% trigger threshold (4/16 slots), with
    // room everywhere: each pass performs exactly one migration until
    // the lifetime budget is exhausted, within the 10 passes below.
    static_assert(colo::SecureAllocator::kMigrationBudget < 10);
    for (size_t h = 0; h < cluster.size(); ++h) {
        sim::Tenant t{cluster.nextTenantId(), 4, false};
        ASSERT_TRUE(cluster.placeOn(h, t));
        secure.record(t.id, h, spec);
    }
    size_t total = 0;
    for (int pass = 0; pass < 10; ++pass) {
        size_t n = secure.reactiveStep(cluster, 1.0 + pass);
        EXPECT_LE(n, 1u);
        total += n;
    }
    EXPECT_EQ(total, size_t{colo::SecureAllocator::kMigrationBudget});
    EXPECT_EQ(secure.migrationsUsed(),
              colo::SecureAllocator::kMigrationBudget);
}

TEST(ColoSecureAllocator, TenantDepartedMidDecisionIsForgottenNotMigrated)
{
    sim::Cluster cluster(3);
    colo::SecureAllocator secure(47);
    workloads::AppSpec spec = victimSpec(7);

    // Host 0 is hot and its only recorded tenant departs before the
    // reactive pass runs on the stale trigger.
    sim::Tenant gone{cluster.nextTenantId(), 8, false};
    ASSERT_TRUE(cluster.placeOn(0, gone));
    secure.record(gone.id, 0, spec);
    sim::Tenant keeper{cluster.nextTenantId(), 8, false};
    ASSERT_TRUE(cluster.placeOn(0, keeper));
    cluster.remove(gone.id);

    // Only `gone` is recorded: the pass drops the stale record and
    // migrates nothing.
    EXPECT_EQ(secure.reactiveStep(cluster, 1.0), 0u);
    EXPECT_EQ(secure.migrationsUsed(), 0);
    EXPECT_EQ(cluster.locate(keeper.id), std::optional<size_t>(0));

    // Same edge when the tenant moved (rather than left): record says
    // host 0, the tenant actually lives on host 2.
    sim::Tenant mover{cluster.nextTenantId(), 8, false};
    ASSERT_TRUE(cluster.placeOn(2, mover));
    secure.record(mover.id, 0, spec);
    EXPECT_EQ(secure.reactiveStep(cluster, 2.0), 0u);
    EXPECT_EQ(secure.migrationsUsed(), 0);
}
