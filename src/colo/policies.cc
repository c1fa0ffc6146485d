#include "policies.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/seeds.h"

namespace bolt {
namespace colo {

std::optional<size_t>
MabScheduler::pickFrom(const sim::Cluster& cluster,
                       const sched::PlacementRequest& req,
                       const std::vector<size_t>& candidates)
{
    if (arms_.size() < cluster.size())
        arms_.resize(cluster.size());
    util::Rng rng =
        util::Rng::stream(seed_, {util::seeds::kColoMab, decisions_});
    ++decisions_;

    size_t chosen;
    if (rng.bernoulli(kExplore)) {
        chosen = candidates[rng.index(candidates.size())];
    } else {
        // UCB1 over the feasible arms, first-wins in ascending order.
        size_t best = candidates.front();
        double best_v = -std::numeric_limits<double>::infinity();
        for (size_t i : candidates) {
            const Arm& a = arms_[i];
            double bonus = std::sqrt(
                2.0 * std::log(static_cast<double>(decisions_ + 1)) /
                static_cast<double>(a.pulls + 1));
            double v = a.value + bonus;
            if (v > best_v) {
                best_v = v;
                best = i;
            }
        }
        chosen = best;
    }

    // Efficiency-vs-exposure reward: the utilization term 4u(1-u)
    // peaks at half-full hosts (good consolidation without
    // hot-spotting), the crowd term penalizes adding to hosts that
    // already concentrate many tenants (co-residency exposure).
    const sim::Server& s = cluster.server(chosen);
    double total = static_cast<double>(s.totalSlots());
    double u = (total - s.freeSlots() + req.vcpus) / total;
    double crowd = static_cast<double>(residentsOn(chosen)) /
                   static_cast<double>(s.cores());
    double reward = kWUtil * 4.0 * u * (1.0 - u) - kWSec * crowd;
    Arm& arm = arms_[chosen];
    ++arm.pulls;
    arm.value += (reward - arm.value) / static_cast<double>(arm.pulls);
    return chosen;
}

double
SecureAllocator::score(const sim::Cluster& cluster,
                       const sched::PlacementRequest& req, size_t server) const
{
    const sim::Server& s = cluster.server(server);
    double total = static_cast<double>(s.totalSlots());
    double occupied = total - s.freeSlots();
    double powered = occupied > 0.0 ? 1.0 : 0.0;
    double risk =
        static_cast<double>(s.tenants().size()) / total;
    // Energy: prefer already-powered hosts (consolidation); risk:
    // penalize tenant-dense hosts; the small free-slot term steers
    // equally-scored hosts away from the fullest one.
    (void)req;
    return kWEnergy * powered - kWRisk * risk +
           1e-4 * s.freeSlots() / total;
}

std::optional<size_t>
SecureAllocator::pickFrom(const sim::Cluster& cluster,
                          const sched::PlacementRequest& req,
                          const std::vector<size_t>& candidates)
{
    // Randomize among the top-K scorers: the objective still shapes the
    // outcome, but the exact argmax is not predictable to an attacker
    // replaying the public objective.
    std::vector<size_t> ranked = candidates;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](size_t a, size_t b) {
                         return score(cluster, req, a) >
                                score(cluster, req, b);
                     });
    size_t k = std::min(kTopK, ranked.size());
    util::Rng rng =
        util::Rng::stream(seed_, {util::seeds::kColoSecure, decisions_});
    ++decisions_;
    return ranked[rng.index(k)];
}

size_t
SecureAllocator::reactiveStep(sim::Cluster& cluster, double t)
{
    // Fresh controllers every pass: each pass re-arms the one-shot
    // trigger, so a persistently loaded host keeps nominating
    // candidates wave after wave (while the budget lasts).
    controllers_.assign(cluster.size(),
                        sched::MigrationController(kMigrateThreshold, 8.0,
                                                   0.0));

    std::vector<size_t> triggered;
    for (size_t h = 0; h < cluster.size(); ++h) {
        const sim::Server& s = cluster.server(h);
        double total = static_cast<double>(s.totalSlots());
        double util = 100.0 * (total - s.freeSlots()) / total;
        if (controllers_[h].sample(t, util))
            triggered.push_back(h);
    }
    if (triggered.empty() || migrationsUsed_ >= kMigrationBudget)
        return 0;

    // Migrate the NEWEST recorded tenant on any triggered host (ids
    // are monotone, so max id == newest): fresh placements are the
    // ones launch-time co-location attacks chase, so rotating them
    // invalidates attacker knowledge at one migration per pass.
    std::vector<sim::TenantId> by_age;
    for (const auto& [id, p] : placements_)
        if (std::find(triggered.begin(), triggered.end(), p.server) !=
            triggered.end())
            by_age.push_back(id);
    std::sort(by_age.rbegin(), by_age.rend());

    for (sim::TenantId victim : by_age) {
        size_t h = placements_.at(victim).server;
        // Tenant-departed-mid-decision edge: the controller fired on a
        // stale view; drop the stale record instead of migrating.
        std::optional<size_t> where = cluster.locate(victim);
        if (!where || *where != h) {
            forget(victim);
            continue;
        }
        std::optional<sim::Tenant> ten = cluster.server(h).tenant(victim);
        if (!ten)
            continue;
        sched::PlacementRequest req;
        req.spec = placements_.at(victim).spec;
        req.vcpus = ten->vcpus;
        req.constraints.avoid.push_back(h);
        std::optional<size_t> dest = place(cluster, req);
        if (!dest)
            continue; // Zero eligible targets: try an older tenant.

        cluster.remove(victim);
        cluster.placeOn(*dest, *ten);
        record(victim, *dest, req.spec);
        ++migrationsUsed_;
        obs::MetricsRegistry::global().add(
            obs::MetricId::kColoDefenseMigrations);
        return 1;
    }
    return 0;
}

} // namespace colo
} // namespace bolt
