#ifndef BOLT_ATTACKS_DOS_H
#define BOLT_ATTACKS_DOS_H

#include <vector>

#include "core/detector.h"
#include "sched/scheduler.h"
#include "workloads/app.h"

namespace bolt {
namespace attacks {

/**
 * Internal (host-based) denial-of-service attack (Section 5.1).
 *
 * Bolt's variant crafts a contentious workload from the same tunable
 * microbenchmarks used for detection, configured slightly above the
 * victim's measured pressure in its most critical resources — degrading
 * the victim sharply while keeping host CPU utilization moderate, which
 * evades load-triggered migration defenses. The naive baseline saturates
 * the CPU and is caught by the defense.
 */
class DosAttack
{
  public:
    /**
     * Build the adversary's injected pressure vector from a detected
     * victim profile: the `top_resources` highest-pressure resources are
     * stressed at `margin` times the victim's measured pressure
     * (clamped to 100), everything else stays idle.
     */
    static sim::ResourceVector
    craftContention(const sim::ResourceVector& victim_profile,
                    int top_resources = 2, double margin = 1.10);

    /** Naive DoS: a compute-intensive kernel saturating the CPU. */
    static sim::ResourceVector naiveCpuSaturation();
};

/** One 1-second sample of the Figure 13 timeline. */
struct DosTimelineSample
{
    double t = 0;          ///< Seconds since experiment start.
    double p99Ms = 0;      ///< Victim tail latency.
    double cpuUtil = 0;    ///< Host CPU utilization (defense signal).
    bool migrating = false; ///< Victim migration in flight.
    bool migrated = false;  ///< Victim now on a fresh host.
};

/// Sim second the Figure 13 attack starts: Bolt has detected the victim.
inline constexpr double kDosDetectionAtSec = 20.0;
/// Host CPU-utilization percent above which the migration defense fires.
inline constexpr double kDosMigrationThreshold = 70.0;
/// Sim seconds a live migration of the victim takes.
inline constexpr double kDosMigrationOverheadSec = 8.0;
/// Sustained overload, in sim seconds, before migration triggers.
inline constexpr double kDosTriggerSustainSec = 59.0;

/** Configuration of the single-victim DoS timeline experiment. */
struct DosTimelineConfig
{
    double durationSec = 120.0;
    int topResources = 2;
    double margin = 1.15;
    uint64_t seed = 99;
};

/**
 * Replays the Figure 13 scenario: a memcached victim and an adversarial
 * VM on one host with a load-triggered live-migration defense. Returns
 * the second-by-second tail latency and host utilization for either
 * attack flavor.
 */
class DosTimelineExperiment
{
  public:
    explicit DosTimelineExperiment(DosTimelineConfig config = {})
        : config_(config)
    {
    }

    /**
     * @param use_bolt true = victim-tailored attack; false = naive
     *                 CPU-saturating kernel.
     */
    std::vector<DosTimelineSample> run(bool use_bolt) const;

  private:
    DosTimelineConfig config_;
};

/** Aggregate DoS impact over a victim mix (Section 5.1 numbers). */
struct DosImpact
{
    double meanExecDegradation = 0; ///< Batch jobs, x (paper: 2.2x).
    double maxExecDegradation = 0;  ///< Paper: 9.8x.
    double minTailMultiplier = 0;   ///< Interactive victims (paper: 8x).
    double maxTailMultiplier = 0;   ///< Paper: up to 140x.
    size_t victims = 0;
};

/**
 * Runs the Bolt DoS against each victim of a controlled-experiment-style
 * mix and aggregates the degradation statistics.
 */
DosImpact dosImpactStudy(size_t victims = 108, uint64_t seed = 5);

} // namespace attacks
} // namespace bolt

#endif // BOLT_ATTACKS_DOS_H
