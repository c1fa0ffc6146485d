#ifndef BOLT_COLO_POLICIES_H
#define BOLT_COLO_POLICIES_H

#include <cstdint>
#include <vector>

#include "sched/scheduler.h"

namespace bolt {
namespace colo {

/**
 * Multi-armed-bandit allocation defense (PAPERS.md: Multi-Armed-Bandit
 * VM allocation): each host is an arm, the reward trades utilization
 * efficiency against co-residency exposure, and epsilon-greedy
 * exploration keeps the final choice unpredictable to an adversary
 * replaying the public placement behavior.
 *
 * Every draw comes from Rng::stream(seed, {kColoMab, decision}), so a
 * campaign replays bit-identically at any thread count; affinity
 * requests are advisory-only (honorsAffinity() == false) to close the
 * Repttack constraint-gaming channel.
 */
class MabScheduler : public sched::PlacementPolicy
{
  public:
    /// Exploration probability per decision.
    static constexpr double kExplore = 0.15;
    /// Weight of the utilization-efficiency reward term.
    static constexpr double kWUtil = 0.5;
    /// Weight of the co-residency-exposure penalty term.
    static constexpr double kWSec = 0.5;

    /** @param seed Root of the policy's private draw streams. */
    explicit MabScheduler(uint64_t seed) : seed_(seed) {}

    const char* name() const override { return "mab"; }
    bool honorsAffinity() const override { return false; }

  protected:
    double score(const sim::Cluster&, const sched::PlacementRequest&,
                 size_t) const override
    {
        return 0.0; // unused: pickFrom is overridden
    }
    std::optional<size_t>
    pickFrom(const sim::Cluster& cluster, const sched::PlacementRequest& req,
             const std::vector<size_t>& candidates) override;

  private:
    struct Arm
    {
        double value = 0.0;
        uint64_t pulls = 0;
    };
    std::vector<Arm> arms_;
    uint64_t seed_;
    uint64_t decisions_ = 0;
};

/**
 * Optimization-based secure allocator (PAPERS.md: optimization-based
 * real-time secure VM allocation): scores hosts with an explicit
 * energy/utilization-vs-risk objective, then randomizes among the
 * top-K scorers so the argmax is not predictable, and reacts to load
 * with a migration-budgeted re-placement pass driven by per-host
 * sched::MigrationController instances.
 */
class SecureAllocator : public sched::PlacementPolicy
{
  public:
    /// Max reactive migrations over the allocator's lifetime.
    static constexpr int kMigrationBudget = 4;
    /// Randomization width among top scorers.
    static constexpr size_t kTopK = 4;
    /// Reward for reusing already-powered hosts (consolidation =
    /// energy saving).
    static constexpr double kWEnergy = 0.1;
    /// Penalty per unit of co-residency exposure (residents per slot).
    static constexpr double kWRisk = 2.0;
    /// Host CPU-utilization percent above which the reactive pass may
    /// rotate a tenant away (aggressively low: the defense rotates
    /// fresh placements on any host carrying real load).
    static constexpr double kMigrateThreshold = 20.0;

    /** @param seed Root of the tie-break draw streams. */
    explicit SecureAllocator(uint64_t seed) : seed_(seed) {}

    const char* name() const override { return "secure-opt"; }
    bool honorsAffinity() const override { return false; }

    /**
     * Reactive re-placement pass at sim time `t`: feed every host's
     * utilization to its MigrationController and, for each trigger
     * still within budget, migrate the most recent recorded tenant off
     * the hot host to the best host under the secure objective.
     * Tenants that departed between the trigger and the decision are
     * skipped (and forgotten); hosts with zero eligible targets are
     * skipped. @return migrations performed in this pass.
     */
    size_t reactiveStep(sim::Cluster& cluster, double t);

    int migrationsUsed() const { return migrationsUsed_; }

  protected:
    double score(const sim::Cluster& cluster, const sched::PlacementRequest& req,
                 size_t server) const override;
    std::optional<size_t>
    pickFrom(const sim::Cluster& cluster, const sched::PlacementRequest& req,
             const std::vector<size_t>& candidates) override;

  private:
    std::vector<sched::MigrationController> controllers_;
    uint64_t seed_;
    uint64_t decisions_ = 0;
    int migrationsUsed_ = 0;
};

} // namespace colo
} // namespace bolt

#endif // BOLT_COLO_POLICIES_H
