#ifndef BOLT_SCHED_SCHEDULER_H
#define BOLT_SCHED_SCHEDULER_H

#include <map>
#include <optional>

#include "sched/policy.h"
#include "sim/cluster.h"
#include "workloads/app.h"

namespace bolt {
namespace sched {

/**
 * Least-loaded scheduler (Section 3.4): allocates on the machine with
 * the most available compute, memory and storage. Commonly used in
 * datacenters; ignores interference between co-residents — and, being
 * a deterministic argmax, it is the most predictable (and therefore
 * most constraint-gameable) policy in the arms-race tournament.
 */
class LeastLoadedScheduler : public PlacementPolicy
{
  public:
    const char* name() const override { return "least-loaded"; }

  protected:
    double score(const sim::Cluster& cluster, const PlacementRequest& req,
                 size_t server) const override;

  private:
    /** Aggregate footprint already placed on a server (lower = freer). */
    double footprint(size_t server) const;
};

/**
 * Quasar-style interference-aware scheduler: among servers with
 * capacity, prefer the one whose residents' resource profiles overlap
 * least with the incoming application, so co-scheduled jobs contend on
 * different critical resources.
 */
class QuasarScheduler : public PlacementPolicy
{
  public:
    const char* name() const override { return "quasar"; }

  protected:
    double score(const sim::Cluster& cluster, const PlacementRequest& req,
                 size_t server) const override;

  private:
    /** Profile-overlap score of `spec` with residents of `server`. */
    double interference(size_t server,
                        const workloads::AppSpec& spec) const;
};

/**
 * Uniform-random placement among servers with capacity — the launch
 * strategy an external adversary gets in the co-residency attack.
 *
 * Decision k draws from the counter-based stream
 * Rng::stream(seed, {seeds::kSchedRandomPick, k}); no stateful engine
 * is carried between decisions, so a replayed placement sequence is
 * order-independent: the k-th decision's draw never depends on how
 * much entropy earlier decisions (or other policies sharing a root
 * seed) consumed.
 */
class RandomScheduler : public PlacementPolicy
{
  public:
    explicit RandomScheduler(uint64_t seed) : seed_(seed) {}
    const char* name() const override { return "random"; }

  protected:
    double score(const sim::Cluster&, const PlacementRequest&,
                 size_t) const override
    {
        return 0.0; // unused: pickFrom is overridden
    }
    std::optional<size_t>
    pickFrom(const sim::Cluster& cluster, const PlacementRequest& req,
             const std::vector<size_t>& candidates) override;

  private:
    uint64_t seed_;
    uint64_t decisions_ = 0;
};

/**
 * Load-triggered live-migration defense (Section 5.1): samples host CPU
 * utilization every second; when it exceeds the threshold, the victim is
 * migrated to an unloaded host with a fixed overhead window during which
 * performance stays degraded.
 */
class MigrationController
{
  public:
    /**
     * @param util_threshold Trigger threshold in percent (paper: 70).
     * @param overhead_sec   Migration duration (paper: 8 s).
     * @param sustain_sec    Consecutive over-threshold seconds required
     *                       before a migration is initiated (avoids
     *                       thrashing on transient spikes).
     */
    MigrationController(double util_threshold = 70.0,
                        double overhead_sec = 8.0,
                        double sustain_sec = 0.0)
        : threshold_(util_threshold), overheadSec_(overhead_sec),
          sustainSec_(sustain_sec)
    {
    }

    /**
     * Feed one 1-second utilization sample at time `t`.
     * @return true exactly when a migration is triggered.
     */
    bool sample(double t, double cpu_util);

    /** Whether a migration is in flight at time t. */
    bool migrating(double t) const;

    /** Whether the victim has completed a migration by time t. */
    bool migrated(double t) const;

    double threshold() const { return threshold_; }

  private:
    double threshold_;
    double overheadSec_;
    double sustainSec_;
    double overSince_ = -1.0; ///< Start of the current over-threshold run.
    std::optional<double> triggerTime_;
};

} // namespace sched
} // namespace bolt

#endif // BOLT_SCHED_SCHEDULER_H
