#ifndef BOLT_CORE_PROFILER_H
#define BOLT_CORE_PROFILER_H

#include <functional>
#include <optional>
#include <vector>

#include "core/microbench.h"
#include "core/observation.h"
#include "fault/fault.h"
#include "sim/contention.h"
#include "sim/server.h"

namespace bolt {
namespace core {

/**
 * The host environment the adversarial VM operates in: which server it
 * sits on, its tenant id, the contention semantics, and a way to sample
 * every tenant's instantaneous pressure (supplied by the workload layer).
 */
struct HostEnvironment
{
    const sim::Server* server = nullptr;
    sim::TenantId adversary = sim::kNoTenant;
    const sim::ContentionModel* contention = nullptr;
    /** Instantaneous pressure of every tenant on the host at time t. */
    std::function<sim::PressureMap(double)> pressureAt;
    /**
     * Optional fault oracle for this host (src/fault): capacity jitter
     * perturbs what probes see, and each sample may be spiked or
     * dropped. Null (the default) runs the exact unfaulted code path.
     * The oracle is owned by the detection task that owns this
     * environment; the profiler advances its sample stream.
     */
    fault::HostFaults* faults = nullptr;

    /** External pressure visible to the adversary at time t. */
    sim::ResourceVector visibleExternal(double t) const;

    /** Physical cores the adversary's vCPUs occupy. */
    std::vector<int> adversaryCores() const;
};

/// Shutter mode: number of brief uncore sampling windows.
inline constexpr int kShutterWindows = 12;
/// Shutter window length in seconds (paper: 10-50 msec).
inline constexpr double kShutterWindowSec = 0.03;

/**
 * Profiling strategy knobs (Section 3.2/3.3). A round whose core probe
 * reads zero always spends one extra uncore benchmark.
 */
struct ProfilerConfig
{
    /** Benchmarks per round: 1 core + 1 uncore by default. */
    int benchmarks = 2;
    /**
     * Intensity scale of the probes: an adversarial VM smaller than 4
     * vCPUs cannot generate full contention (Fig. 10b); 1.0 means a
     * probe can push a resource to 100%.
     */
    double intensityScale = 1.0;
};

/** One profiling round's outcome. */
struct ProfileRound
{
    /**
     * Assembled observation: core-resource entries are Exact (they come
     * from the focus core's single hyperthread sibling), uncore entries
     * are Exact aggregates over all co-residents — the detector decides
     * whether to reinterpret them as Upper bounds when disentangling.
     */
    SparseObservation observation;
    int focusCore = -1;         ///< Adversary core the core probes used.
    double durationSec = 0.0;   ///< Virtual time the probes consumed.
    int benchmarksRun = 0;
    bool coreShared = false;    ///< Core probe saw non-zero pressure.
    /**
     * Probe samples lost to fault-injected dropouts this round. A
     * dropped sample is *masked* — its resource is simply not set in
     * `observation` — never recorded as zero pressure, so thin coverage
     * is visible to the detector's confidence gate instead of reading
     * as a genuinely idle resource. Always 0 without a fault oracle.
     */
    int droppedSamples = 0;
};

/**
 * Runs microbenchmarks from the adversarial VM and assembles the sparse
 * observation the recommender consumes.
 *
 * Core-resource probes pin to one physical core of the adversary (the
 * focus core) so they measure the single co-resident sharing that core —
 * hyperthreads are never shared between active instances, so this signal
 * is attributable to one workload. Uncore probes measure the host-wide
 * aggregate.
 */
class Profiler
{
  public:
    explicit Profiler(ProfilerConfig config = {}) : config_(config) {}

    const ProfilerConfig& config() const { return config_; }

    /**
     * One standard profiling round starting at virtual time `t`.
     *
     * @param focus_core_hint Index into adversaryCores() used to rotate
     *        the focus core across rounds; -1 picks randomly.
     */
    ProfileRound profile(const HostEnvironment& env, double t,
                         util::Rng& rng, int focus_core_hint = -1) const;

    /**
     * Probe one resource at time t. Core resources read the focus core's
     * sibling; uncore resources read the host aggregate. When the
     * environment carries a fault oracle, capacity jitter scales the
     * visible pressure first; the returned reading is the *raw* probe
     * result — pass it through applySampleFaults for spike/dropout
     * classification.
     */
    double measureResource(const HostEnvironment& env, sim::Resource r,
                           int focus_core, double t, util::Rng& rng) const;

    /**
     * Classify one raw probe reading against the host's fault oracle:
     * the kept (possibly spiked) reading, or nullopt when the sample
     * was dropped and must be masked. Consumes exactly one slot of the
     * host's sample-fault stream per call; without an oracle it is the
     * identity. Callers still advance virtual time by the probe's ramp
     * duration — the benchmark ran, only its reading was lost. The sim
     * time t attributes the fault to a telemetry window.
     */
    static std::optional<double>
    applySampleFaults(const HostEnvironment& env, double reading,
                      double t = 0.0);

    /**
     * Shutter profiling (Section 3.3): brief, frequent windows on the
     * uncore resources; the minimum-pressure window likely catches all
     * but one co-resident at low load, exposing a single victim's
     * profile. Returns the min-window observation (entries Exact).
     */
    ProfileRound shutterProfile(const HostEnvironment& env, double t,
                                util::Rng& rng) const;

  private:
    ProfilerConfig config_;
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_PROFILER_H
