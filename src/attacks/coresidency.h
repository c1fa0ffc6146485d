#ifndef BOLT_ATTACKS_CORESIDENCY_H
#define BOLT_ATTACKS_CORESIDENCY_H

#include <string>
#include <vector>

#include "core/detector.h"
#include "sched/scheduler.h"
#include "sim/contention.h"
#include "util/rng.h"
#include "workloads/app.h"

namespace bolt {
namespace attacks {

/// Other tenants running the same service as the §5.3 victim.
inline constexpr size_t kDecoySqlVms = 7;

/**
 * The receiver's decision rule: a timed latency above baseline x this
 * ratio confirms co-residency. The §5.3 attack and the arms race's
 * colo::CoResidencyOracle confirm by the same rule.
 */
inline constexpr double kLatencyRatioThreshold = 2.0;

/// Campaign seconds per sender/receiver confirmation: the sender's
/// burst and the receiver's sampling window.
inline constexpr double kConfirmSec = 1.5;
/// Campaign seconds per failed probe wave: teardown and relaunch.
inline constexpr double kFailedWaveSec = 5.0;

/**
 * One timed measurement of the receiver: the target's mean latency
 * with lognormal(1.0, 0.04) jitter drawn from `rng`. A co-resident
 * sender crafts contention on the target's two most sensitive resources
 * at 1.2x, and the target slows by the ContentionModel's slowdown.
 * The §5.3 attack and colo::CoResidencyOracle both measure with it.
 */
double receiverLatencyMs(const workloads::AppSpec& target,
                         const workloads::AppInstance& instance,
                         const sim::ContentionModel& contention,
                         bool coResident, util::Rng& rng);

/** Configuration of the §5.3 VM co-residency detection attack. */
struct CoResidencyConfig
{
    size_t servers = 40;      ///< Cluster size N.
    size_t backgroundVms = 24; ///< Key-value stores, Hadoop, Spark, ...
    size_t probeVms = 10;     ///< n: adversarial VMs launched per wave.
    size_t maxWaves = 8;      ///< Probe waves before giving up.
    uint64_t seed = 31;
};

/** Outcome of one co-residency attack run. */
struct CoResidencyResult
{
    /** 1 - (1 - 1/N)^n: a priori probability of landing a probe next
     *  to the one target VM. */
    double placementProbability = 0;
    /** Whether a probe VM actually landed next to the target. */
    bool probeCoResident = false;
    /** Hosts (of those probed) Bolt flagged as running the service. */
    size_t candidateHosts = 0;
    /** Receiver latency against the target without sender contention. */
    double baselineLatencyMs = 0;
    /** Receiver latency while the co-resident sender interferes. */
    double attackLatencyMs = 0;
    /** Whether the attack pinpointed the victim host. */
    bool victimPinpointed = false;
    /** Virtual seconds from probe instantiation to confirmation. */
    double detectionTimeSec = 0;
    /** Adversarial VMs consumed (probes + the external receiver). */
    size_t adversaryVmsUsed = 0;
    /** Probe waves launched until confirmation (or the cap). */
    size_t wavesUsed = 0;
};

/**
 * VM co-residency detection (Section 5.3): the adversary launches n
 * probe VMs simultaneously, uses Bolt to find which probed hosts run
 * the target's service type, then runs a sender/receiver pair — the
 * co-resident sender injects contention in the victim's sensitive
 * resources while an external receiver times requests over a public
 * channel (e.g. SQL queries). A latency jump confirms co-residency
 * without any reliance on IP naming or network topology.
 */
class CoResidencyAttack
{
  public:
    explicit CoResidencyAttack(CoResidencyConfig config = {})
        : config_(config)
    {
    }

    CoResidencyResult run() const;

  private:
    CoResidencyConfig config_;
};

} // namespace attacks
} // namespace bolt

#endif // BOLT_ATTACKS_CORESIDENCY_H
