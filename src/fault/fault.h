#ifndef BOLT_FAULT_FAULT_H
#define BOLT_FAULT_FAULT_H

#include <cstdint>

#include "util/rng.h"
#include "workloads/app.h"

namespace bolt {
namespace fault {

/**
 * Deterministic fault-injection plan for a controlled experiment: the
 * perturbations Bolt's real-cloud evaluation survived (tenant churn,
 * workload phase changes, noisy and missing contention measurements,
 * background capacity jitter) made reproducible in the simulator.
 *
 * Every fault drawn under a plan is a pure function of (plan, seed) via
 * counter-based `Rng::stream` derivations — no fault draw ever touches
 * a detection RNG stream — so a faulted run is bit-identical at any
 * thread count, and a plan with every rate at zero is bit-identical to
 * running with no plan at all (the layer is inert when disabled; the
 * experiment engine does not even attach it then).
 *
 * Probabilities are per-event Bernoulli rates; pressure values are
 * percentage points in [0, 100]; times are virtual seconds.
 */
struct FaultPlan
{
    /**
     * Tenant churn (per host, per detection round): a background VM —
     * an unscored neighbor drawn from the full application catalog —
     * arrives with this probability at the start of a round. Arrivals
     * that no longer fit on the host are dropped silently.
     */
    double arrivalProb = 0.0;
    /** Per victim, per round: the victim departs before the round. */
    double departureProb = 0.0;
    /**
     * Per victim, per round: the victim's load pattern flips to a new
     * phase offset (Fig. 8-style phase change mid-detection).
     */
    double phaseFlipProb = 0.0;

    /** Per probe: the sample is lost (masked, never treated as zero). */
    double dropoutProb = 0.0;
    /** Per probe: the reading takes an additive outlier spike. */
    double spikeProb = 0.0;
    /** Spike amplitude upper bound, pressure points (modifier). */
    double spikeMagnitude = 35.0;

    /**
     * Transient server capacity jitter: the pressure visible to probes
     * is scaled by 1 + amp * u, u ~ Uniform[-1, 1) per (server, time
     * window) — background hypervisor/management activity the adversary
     * cannot distinguish from tenant load.
     */
    double capacityJitterAmp = 0.0;
    /** Jitter window length in virtual seconds (modifier). */
    double capacityJitterWindowSec = 20.0;

    /** Fault seed; 0 means "derive from the experiment seed" (modifier). */
    uint64_t seed = 0;

    /**
     * Whether any fault can actually fire. Modifier-only plans (a seed
     * or a spike magnitude with every rate at zero) are *not* enabled —
     * the scenario compiler rejects a `faults:` block that sets only
     * modifiers.
     */
    bool enabled() const
    {
        return arrivalProb > 0.0 || departureProb > 0.0 ||
               phaseFlipProb > 0.0 || dropoutProb > 0.0 ||
               spikeProb > 0.0 || capacityJitterAmp > 0.0;
    }
};

/** One kept-or-dropped classification of a probe sample. */
struct SampleFault
{
    bool dropped = false; ///< Sample lost; the caller must mask it.
    double delta = 0.0;   ///< Additive outlier spike, pressure points.
};

/** A background-VM arrival event materialized from the fault streams. */
struct ArrivalEvent
{
    bool fires = false;
    workloads::AppSpec spec; ///< What arrived (unscored neighbor).
};

/**
 * Per-host fault oracle: answers every fault question one detection
 * task asks, deterministically.
 *
 * Round- and victim-keyed questions (arrivals, departures, phase
 * flips) and the capacity jitter factor are pure functions of
 * (fault seed, server, coordinates) — they may be asked in any order.
 * Sample faults come from one sequential per-host stream advanced once
 * per probe; within a host task probes run in a fixed order, so the
 * classification sequence is reproducible too.
 *
 * Thread-safety: one HostFaults per detection task, owned by it alone
 * (the experiment engine creates one inside each per-server task).
 */
class HostFaults
{
  public:
    /**
     * @param plan      The fault plan (copied).
     * @param root_seed Experiment seed, used when plan.seed == 0.
     * @param server    Host index, part of every stream derivation.
     */
    HostFaults(const FaultPlan& plan, uint64_t root_seed, size_t server);

    const FaultPlan& plan() const { return plan_; }
    uint64_t faultSeed() const { return seed_; }

    /**
     * Classify the next probe sample on this host. Consumes exactly one
     * slot of the per-host sample stream per call, whatever the answer.
     */
    SampleFault nextSampleFault();

    /**
     * Capacity-jitter multiplier on pressure visible at time t. Pure
     * function of (seed, server, floor(t / window)); 1.0 exactly when
     * the amplitude is zero.
     */
    double capacityFactor(double t) const;

    /** Background-VM arrival at the start of detection round `round`. */
    ArrivalEvent arrivalAt(int round) const;

    /** Whether victim slot `victim` departs before round `round`. */
    bool departureAt(int round, size_t victim) const;

    /**
     * Whether victim slot `victim` phase-flips before round `round`;
     * when it does, *new_phase receives the new pattern phase offset
     * (seconds, within one pattern period of the victim's spec).
     */
    bool phaseFlipAt(int round, size_t victim, double period_sec,
                     double* new_phase) const;

  private:
    FaultPlan plan_;
    uint64_t seed_;
    size_t server_;
    util::Rng sampleRng_; ///< Sequential per-host probe-fault stream.
};

} // namespace fault
} // namespace bolt

#endif // BOLT_FAULT_FAULT_H
