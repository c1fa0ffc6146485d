#ifndef BOLT_WORKLOADS_APP_H
#define BOLT_WORKLOADS_APP_H

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/resource.h"
#include "util/rng.h"

namespace bolt {
namespace workloads {

/**
 * Temporal load shape of an application (Section 3.3: datacenter apps go
 * through phases; online services follow diurnal patterns; shutter
 * profiling exploits brief low-load windows).
 */
struct LoadPattern
{
    enum class Kind : uint8_t {
        Constant, ///< Steady-state load (long-running analytics).
        Diurnal,  ///< Slow sinusoidal day/night swing.
        Bursty,   ///< On/off bursts with a duty cycle.
        Idle,     ///< Mostly idle with rare activity (email, vim, ...).
    };

    Kind kind = Kind::Constant;
    double level = 1.0;      ///< Peak load multiplier in (0, 1].
    double floor = 0.2;      ///< Low-phase multiplier (diurnal/bursty).
    double periodSec = 60.0; ///< Pattern period.
    double duty = 0.5;       ///< Bursty: fraction of period at peak.
    double phase = 0.0;      ///< Phase offset in seconds.

    /** Load multiplier in [0, level] at time t (seconds). */
    double factor(double t) const;

    static LoadPattern constant(double level = 1.0);
    static LoadPattern diurnal(double level, double floor,
                               double period_sec, double phase = 0.0);
    static LoadPattern bursty(double level, double floor, double period_sec,
                              double duty, double phase = 0.0);
    static LoadPattern idle(double level = 0.15);
};

/**
 * A concrete application configuration: family (framework/service),
 * variant (algorithm or load mix), dataset scale, vCPU count, load
 * pattern, and the resource profile those parameters induce.
 *
 * Two AppSpecs with the same family+variant are the "same application
 * class" for detection-accuracy purposes; dataset/load differences are
 * the within-class variation the recommender must see through.
 */
struct AppSpec
{
    std::string family;  ///< e.g. "hadoop", "memcached", "speccpu".
    std::string variant; ///< e.g. "wordcount", "rd-heavy", "mcf".
    std::string dataset; ///< e.g. "S", "M", "L" or a load descriptor.

    sim::ResourceVector base;        ///< Mean pressure at full load.
    sim::ResourceVector spread;      ///< Per-resource instance sigma.
    sim::ResourceVector sensitivity; ///< [0,1] slowdown sensitivity.

    LoadPattern pattern;
    int vcpus = 2;
    bool interactive = false;  ///< Latency-critical service?
    double nominalP99Ms = 1.0; ///< Unloaded tail latency (interactive).
    bool labeledInTraining = true; ///< Family covered by training set?
    /**
     * Pattern-obfuscation defense amplitude in [0, 1] (an extension the
     * paper's threat model excludes for friendly VMs, §3.1): the
     * application deliberately scrambles its resource usage by randomly
     * re-scaling each resource's pressure draw by up to this fraction,
     * at a proportional throughput cost. 0 disables the defense.
     */
    double obfuscation = 0.0;

    /** "family:variant:dataset" — the paper's labeling convention. */
    std::string label() const;

    /** "family:variant" — class identity used for accuracy scoring. */
    std::string classLabel() const;
};

/**
 * A running application: an AppSpec instantiated with its own jitter
 * stream. Supplies the instantaneous pressure vector the simulator's
 * contention model consumes.
 */
class AppInstance
{
  public:
    /**
     * @param spec Application configuration.
     * @param rng  Private jitter stream (substream it per instance).
     */
    AppInstance(AppSpec spec, util::Rng rng);

    const AppSpec& spec() const { return spec_; }

    /**
     * Instantaneous pressure at time t: base x load(t) plus per-draw
     * jitter, clamped to [0, 100]. Memory and disk *capacity* do not
     * scale with load (a dataset stays resident); bandwidth-like
     * resources do.
     */
    sim::ResourceVector pressureAt(double t);

    /** Deterministic mean pressure at time t (no jitter). */
    sim::ResourceVector meanPressureAt(double t) const;

    /**
     * Fault-injection hook (src/fault): shift the load pattern to a new
     * phase offset mid-run, modeling a workload that abruptly jumps to a
     * different point of its cycle (restart, input change, failover).
     * The jitter stream is untouched.
     */
    void setPatternPhase(double phase) { spec_.pattern.phase = phase; }

    /**
     * Tail latency (p99, msec) of an interactive instance under the
     * given slowdown factor. Queueing amplifies slowdown into the tail:
     * p99 = nominal * slowdown^gamma.
     */
    double p99LatencyMs(double slowdown) const;

    /** Mean latency under slowdown (milder amplification than p99). */
    double meanLatencyMs(double slowdown) const;

    /** Throughput multiplier under slowdown (1/slowdown). */
    static double throughputFactor(double slowdown);

    /**
     * Execution-time factor (>= 1.0) the obfuscation defense costs this
     * instance, independent of any co-resident interference.
     */
    double obfuscationSlowdown() const;

  private:
    AppSpec spec_;
    util::Rng rng_;
};

/** Tail-amplification exponent for interactive services. */
constexpr double kTailAmplification = 2.9;

/** Upper bound on tail inflation (client timeouts / load shedding). */
constexpr double kTailSaturation = 150.0;

/**
 * Capacity resources (memory, disk footprints) hold their allocation
 * regardless of request load; everything else scales with it.
 */
constexpr bool
isLoadInvariant(sim::Resource r)
{
    return sim::isCapacityResource(r);
}

static_assert(isLoadInvariant(sim::Resource::MemCap) &&
                  isLoadInvariant(sim::Resource::DiskCap) &&
                  !isLoadInvariant(sim::Resource::MemBw),
              "the capacity tag in the resource catalog drives the "
              "load-scaling law; MemCap/DiskCap are the footprints");

/**
 * Load multiplier floor for capacity resources: a dataset stays
 * resident even when the request rate collapses.
 */
constexpr double kCapacityLoadFloor = 0.85;

/**
 * Scalar form of the load-scaling law: the pressure resource `r` exerts
 * at load multiplier `load` given its full-load pressure `base_r`.
 *
 * Piecewise linear in `load` — a single knot at kCapacityLoadFloor for
 * capacity resources, a saturation at 100 — which is what lets the
 * recommender precompute flat per-entry tables (core/profile_table.h)
 * whose evaluation is bit-identical to calling this function.
 * scaledPressure() below is exactly this applied per resource.
 */
inline double
scaledPressureAt(double base_r, sim::Resource r, double load)
{
    double scale =
        isLoadInvariant(r) ? std::max(load, kCapacityLoadFloor) : load;
    return std::clamp(base_r * scale, 0.0, 100.0);
}

/**
 * Pressure profile of an application with full-load profile `base`
 * running at load multiplier `load`: bandwidth-like resources scale with
 * load, capacity footprints (memory, disk) stay resident.
 *
 * Shared by the runtime instances and the offline training profiler so
 * observed and previously-seen profiles obey the same law.
 */
sim::ResourceVector scaledPressure(const sim::ResourceVector& base,
                                   double load);

} // namespace workloads
} // namespace bolt

#endif // BOLT_WORKLOADS_APP_H
