#include "tournament.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <ostream>
#include <sstream>

#include "obs/timeseries.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workloads/catalog.h"
#include "workloads/generators.h"

namespace bolt {
namespace colo {

namespace {

using util::seeds::derivedSeed;

/** Per-rep outcome slot the parallel fan-out writes. */
struct RepOutcome
{
    bool ran = false;
    bool pinpointed = false;
    int waves = 0;
    uint64_t launches = 0;
    uint64_t coResLaunches = 0;
    uint64_t oracleChecks = 0;
    uint64_t migrations = 0;
    double timeToCoResSec = 0.0;
    double elapsedSec = 0.0;
    double utilPct = 0.0;
    uint64_t digest = 0;
};

std::unique_ptr<sched::PlacementPolicy>
makePolicy(PolicyKind kind, uint64_t cellSeed)
{
    using util::seeds::kColoMab;
    using util::seeds::kColoSecure;
    using util::seeds::kSchedRandomPick;
    switch (kind) {
    case PolicyKind::LeastLoaded:
        return std::make_unique<sched::LeastLoadedScheduler>();
    case PolicyKind::Quasar:
        return std::make_unique<sched::QuasarScheduler>();
    case PolicyKind::Random:
        return std::make_unique<sched::RandomScheduler>(
            derivedSeed(cellSeed, kSchedRandomPick, 0));
    case PolicyKind::Mab:
        return std::make_unique<MabScheduler>(
            derivedSeed(cellSeed, kColoMab, 0));
    case PolicyKind::Secure:
        return std::make_unique<SecureAllocator>(
            derivedSeed(cellSeed, kColoSecure, 0));
    }
    return nullptr;
}

double
meanUtilPct(const sim::Cluster& cluster)
{
    double used = 0.0, total = 0.0;
    for (size_t i = 0; i < cluster.size(); ++i) {
        const sim::Server& s = cluster.server(i);
        total += s.totalSlots();
        used += s.totalSlots() - s.freeSlots();
    }
    return total > 0.0 ? 100.0 * used / total : 0.0;
}

/** One campaign: fresh cluster + policy from the rep's seed tree. */
RepOutcome
runRep(const TournamentConfig& cfg, AttackerKind attacker,
       PolicyKind policyKind, double utilLevel, uint64_t cellSeed)
{
    using util::seeds::kColoOracle;
    using util::seeds::kColoPrefill;
    using util::seeds::kColoProbe;

    RepOutcome out;
    sim::Cluster cluster(cfg.servers);
    std::unique_ptr<sched::PlacementPolicy> policy =
        makePolicy(policyKind, cellSeed);

    // Prefill with background tenants until the target utilization.
    util::Rng prefill_rng(derivedSeed(cellSeed, kColoPrefill, 0));
    auto specs = workloads::controlledTestSet(prefill_rng);
    size_t capacity = 0;
    for (size_t i = 0; i < cluster.size(); ++i)
        capacity += static_cast<size_t>(cluster.server(i).totalSlots());
    const size_t target = static_cast<size_t>(
        utilLevel / 100.0 * static_cast<double>(capacity));
    size_t used = 0, idx = 0;
    int fails = 0;
    while (used < target && fails <= 8) {
        const workloads::AppSpec& spec = specs[idx % specs.size()];
        ++idx;
        std::optional<size_t> choice =
            policy->pick(cluster, spec, spec.vcpus);
        if (!choice) {
            ++fails;
            continue;
        }
        sim::Tenant t{cluster.nextTenantId(), spec.vcpus, false};
        if (!cluster.placeOn(*choice, t)) {
            ++fails;
            continue;
        }
        policy->record(t.id, *choice, spec);
        used += static_cast<size_t>(spec.vcpus);
        fails = 0;
    }

    // The victim: a mysql service the policy places like any tenant.
    const workloads::FamilyDef* sql = workloads::findFamily("mysql");
    util::Rng victim_rng(derivedSeed(cellSeed, kColoPrefill, 1));
    workloads::AppSpec victim_spec = workloads::instantiate(
        *sql, sql->variants[0], "M", victim_rng);
    victim_spec.pattern = workloads::LoadPattern::constant(0.85);
    std::optional<size_t> victim_host =
        policy->pick(cluster, victim_spec, victim_spec.vcpus);
    if (!victim_host)
        return out; // Cluster too full for the victim: rep aborted.
    sim::Tenant victim{cluster.nextTenantId(), victim_spec.vcpus, false};
    if (!cluster.placeOn(*victim_host, victim))
        return out;
    policy->record(victim.id, *victim_host, victim_spec);

    CoResidencyOracle oracle(cluster, victim_spec, victim.id,
                             derivedSeed(cellSeed, kColoOracle, 0));
    AttackerConfig acfg;
    acfg.kind = attacker;
    acfg.probesPerWave = cfg.probesPerWave;
    acfg.waves = cfg.waves;
    ColoAttacker agent(acfg, derivedSeed(cellSeed, kColoProbe, 0));

    auto* secure = dynamic_cast<SecureAllocator*>(policy.get());
    auto onWaveEnd = [&](double t) {
        if (secure)
            secure->reactiveStep(cluster, t);
    };

    CampaignResult cr = agent.run(cluster, *policy, oracle, onWaveEnd);

    out.ran = true;
    out.pinpointed = cr.pinpointed;
    out.waves = cr.wavesUsed;
    out.launches = cr.launches;
    out.coResLaunches = cr.coResidentLaunches;
    out.oracleChecks = cr.oracleChecks;
    out.migrations =
        secure ? static_cast<uint64_t>(secure->migrationsUsed()) : 0;
    out.timeToCoResSec = cr.timeToCoResSec;
    out.elapsedSec = cr.elapsedSec;
    out.utilPct = meanUtilPct(cluster);

    util::Fnv1a d;
    d.u64(cellSeed);
    d.u8(cr.pinpointed ? 1 : 0);
    d.u64(static_cast<uint64_t>(cr.wavesUsed));
    d.u64(cr.launches);
    d.u64(cr.coResidentLaunches);
    d.u64(cr.oracleChecks);
    d.u64(out.migrations);
    d.f64(cr.timeToCoResSec);
    d.f64(cr.elapsedSec);
    d.f64(out.utilPct);
    out.digest = d.h;
    return out;
}

} // namespace

const char*
policyName(PolicyKind kind)
{
    switch (kind) {
#define BOLT_COLO_POLICY_CASE(Sym, Key, Name)                                  \
    case PolicyKind::Sym:                                                      \
        return Name;
        BOLT_COLO_POLICY_CATALOG(BOLT_COLO_POLICY_CASE)
#undef BOLT_COLO_POLICY_CASE
    }
    return "?";
}

TournamentResult
runTournament(const TournamentConfig& cfg)
{
    using util::seeds::kColoCell;

    struct Cell
    {
        AttackerKind attacker;
        PolicyKind policy;
        double util;
    };
    std::vector<Cell> cells;
    for (AttackerKind a : cfg.attackers)
        for (PolicyKind p : cfg.policies)
            for (double u : cfg.utilLevels)
                cells.push_back({a, p, u});

    const size_t reps = static_cast<size_t>(std::max(1, cfg.reps));
    std::vector<RepOutcome> outcomes(cells.size() * reps);

    // Each (cell, rep) pair owns its slot and its seed subtree, so the
    // fan-out is thread-invariant by construction.
    util::parallelFor(
        0, outcomes.size(),
        [&](size_t i) {
            size_t cell = i / reps;
            size_t rep = i % reps;
            uint64_t cellSeed =
                util::Rng::stream(cfg.seed, {kColoCell, cell, rep})
                    .seed();
            outcomes[i] = runRep(cfg, cells[cell].attacker,
                                 cells[cell].policy, cells[cell].util,
                                 cellSeed);
        },
        1);

    TournamentResult result;
    util::Fnv1a fold;
    for (size_t c = 0; c < cells.size(); ++c) {
        CellResult cr;
        cr.attacker = cells[c].attacker;
        cr.policy = cells[c].policy;
        cr.utilLevel = cells[c].util;
        double ttc_sum = 0.0;
        util::Fnv1a cd;
        for (size_t r = 0; r < reps; ++r) {
            const RepOutcome& o = outcomes[c * reps + r];
            if (!o.ran)
                continue;
            ++cr.reps;
            if (o.pinpointed) {
                ++cr.successes;
                ttc_sum += o.timeToCoResSec;
            }
            cr.launches += o.launches;
            cr.coResEvents += o.coResLaunches;
            cr.oracleChecks += o.oracleChecks;
            cr.migrations += o.migrations;
            cr.meanWaves += o.waves;
            cr.meanUtilPct += o.utilPct;
            cr.simSeconds += o.elapsedSec;
            cd.u64(o.digest);
        }
        if (cr.reps > 0) {
            cr.meanWaves /= cr.reps;
            cr.meanUtilPct /= cr.reps;
        }
        if (cr.successes > 0)
            cr.meanTimeToCoResSec = ttc_sum / cr.successes;
        cr.digest = cd.h;
        fold.u64(cr.digest);
        result.cells.push_back(cr);
    }
    result.digest = fold.h;

    // Sim-plane observability: one fold per cell, emitted sequentially
    // after the fan-out so the series content is thread-invariant.
    auto& ts = obs::TimeSeriesRecorder::global();
    for (size_t c = 0; c < result.cells.size(); ++c) {
        const CellResult& cr = result.cells[c];
        double t = static_cast<double>(c);
        if (cr.launches > 0)
            ts.count(obs::SeriesId::kColoAttackerLaunches,
                     attackerName(cr.attacker), t, cr.launches);
        if (cr.coResEvents > 0)
            ts.count(obs::SeriesId::kColoCoResEvents,
                     policyName(cr.policy), t, cr.coResEvents);
    }
    return result;
}

void
printTournament(const TournamentResult& result, std::ostream& os)
{
    util::AsciiTable table({"attacker", "policy", "util%", "success",
                            "waves", "ttc_s", "launches", "cores",
                            "migr", "endutil%"});
    for (const CellResult& c : result.cells) {
        std::ostringstream succ;
        succ << c.successes << "/" << c.reps;
        table.addRow({attackerName(c.attacker), policyName(c.policy),
                      util::AsciiTable::num(c.utilLevel, 0), succ.str(),
                      util::AsciiTable::num(c.meanWaves, 1),
                      util::AsciiTable::num(c.meanTimeToCoResSec, 1),
                      std::to_string(c.launches),
                      std::to_string(c.coResEvents),
                      std::to_string(c.migrations),
                      util::AsciiTable::num(c.meanUtilPct, 1)});
    }
    table.print(os);
}

std::string
tournamentSelfCheck(const TournamentConfig& cfg,
                    const TournamentResult& result,
                    double utilCostBoundPct)
{
    auto has = [&](PolicyKind k) {
        return std::find(cfg.policies.begin(), cfg.policies.end(), k) !=
               cfg.policies.end();
    };
    if (!has(PolicyKind::LeastLoaded))
        return ""; // No baseline: nothing to gate against.

    auto cell = [&](AttackerKind a, PolicyKind p,
                    double u) -> const CellResult* {
        for (const CellResult& c : result.cells)
            if (c.attacker == a && c.policy == p && c.utilLevel == u)
                return &c;
        return nullptr;
    };

    std::ostringstream why;
    for (double u : cfg.utilLevels) {
        // Success-rate gate, aggregated over attackers at each swept
        // utilization level: both defenses must pinpoint the victim
        // strictly less often than the LeastLoaded baseline.
        for (PolicyKind p : {PolicyKind::Mab, PolicyKind::Secure}) {
            if (!has(p))
                continue;
            int base_succ = 0, def_succ = 0, present = 0;
            for (AttackerKind a : cfg.attackers) {
                const CellResult* base =
                    cell(a, PolicyKind::LeastLoaded, u);
                const CellResult* def = cell(a, p, u);
                if (!base || !def)
                    continue;
                ++present;
                base_succ += base->successes;
                def_succ += def->successes;

                if (std::abs(def->meanUtilPct - base->meanUtilPct) >
                    utilCostBoundPct) {
                    why << policyName(p) << " under " << attackerName(a)
                        << "@" << u << "%: utilization cost "
                        << std::abs(def->meanUtilPct -
                                    base->meanUtilPct)
                        << "pp exceeds " << utilCostBoundPct << "pp";
                    return why.str();
                }
                uint64_t budget =
                    static_cast<uint64_t>(
                        SecureAllocator::kMigrationBudget) *
                    static_cast<uint64_t>(def->reps);
                if (def->migrations > budget) {
                    why << policyName(p) << " under " << attackerName(a)
                        << "@" << u << "%: migrations "
                        << def->migrations << " exceed budget "
                        << budget;
                    return why.str();
                }
            }
            if (present > 0 && def_succ >= base_succ) {
                why << policyName(p) << " vs least-loaded @" << u
                    << "%: successes " << def_succ
                    << " >= " << base_succ << " (summed over "
                    << present << " attackers)";
                return why.str();
            }
        }
    }
    return "";
}

} // namespace colo
} // namespace bolt
