#include "profiler.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace bolt {
namespace core {

sim::ResourceVector
HostEnvironment::visibleExternal(double t) const
{
    return contention->externalPressure(*server, adversary, pressureAt(t));
}

std::vector<int>
HostEnvironment::adversaryCores() const
{
    return server->coresOf(adversary);
}

double
Profiler::measureResource(const HostEnvironment& env, sim::Resource r,
                          int focus_core, double t, util::Rng& rng) const
{
    double visible;
    sim::PressureMap pm = env.pressureAt(t);
    if (sim::isCoreResource(r)) {
        visible = env.contention->corePressureFrom(
            *env.server, env.adversary, focus_core, r, pm);
    } else {
        sim::ResourceVector ext = env.contention->externalPressure(
            *env.server, env.adversary, pm);
        visible = ext[r];
    }
    if (env.faults)
        visible = std::clamp(visible * env.faults->capacityFactor(t),
                             0.0, 100.0);
    double noise = env.contention->isolation().measurementNoise();
    if (sim::isCoreResource(r)) {
        // Core microbenchmarks ramp in tens of milliseconds, so the
        // probe runs twice and averages, halving the noise variance.
        double a = Microbenchmark::measure(visible, noise, rng,
                                           config_.intensityScale);
        double b = Microbenchmark::measure(visible, noise, rng,
                                           config_.intensityScale);
        return 0.5 * (a + b);
    }
    return Microbenchmark::measure(visible, noise, rng,
                                   config_.intensityScale);
}

std::optional<double>
Profiler::applySampleFaults(const HostEnvironment& env, double reading,
                            double t)
{
    if (!env.faults)
        return reading;
    fault::SampleFault f = env.faults->nextSampleFault();
    auto& metrics = obs::MetricsRegistry::global();
    auto& telemetry = obs::TimeSeriesRecorder::global();
    if (f.dropped) {
        metrics.add(obs::MetricId::kFaultSampleDropouts);
        if (telemetry.enabled())
            telemetry.count(obs::SeriesId::kFaultEvents, "dropout", t);
        return std::nullopt;
    }
    if (f.delta != 0.0) {
        metrics.add(obs::MetricId::kFaultSampleSpikes);
        if (telemetry.enabled())
            telemetry.count(obs::SeriesId::kFaultEvents, "spike", t);
        return std::clamp(reading + f.delta, 0.0, 100.0);
    }
    return reading;
}

ProfileRound
Profiler::profile(const HostEnvironment& env, double t, util::Rng& rng,
                  int focus_core_hint) const
{
    ProfileRound round;
    double now = t;

    auto cores = env.adversaryCores();
    if (cores.empty())
        cores.push_back(0);
    size_t which = focus_core_hint >= 0
                       ? static_cast<size_t>(focus_core_hint) % cores.size()
                       : rng.index(cores.size());
    round.focusCore = cores[which];

    auto core_order = rng.permutation(sim::kCoreResources.size());
    auto uncore_order = rng.permutation(sim::kUncoreResources.size());
    size_t core_next = 0, uncore_next = 0;

    auto run_probe = [&](sim::Resource r) -> std::optional<double> {
        double raw = measureResource(env, r, round.focusCore, now, rng);
        now += Microbenchmark::rampDurationSec(raw);
        ++round.benchmarksRun;
        auto ci = applySampleFaults(env, raw, now);
        if (ci)
            round.observation.set(r, *ci);
        else
            ++round.droppedSamples;
        return ci;
    };

    int budget = std::max(1, config_.benchmarks);
    for (int b = 0; b < budget; ++b) {
        bool pick_core = (b % 2 == 0);
        if (pick_core && core_next < core_order.size()) {
            auto ci =
                run_probe(sim::kCoreResources[core_order[core_next++]]);
            if (ci && *ci > 0.0)
                round.coreShared = true;
        } else if (uncore_next < uncore_order.size()) {
            run_probe(sim::kUncoreResources[uncore_order[uncore_next++]]);
        }
    }

    // No core sharing detected on the focus core: the core signal
    // carries no information, so spend one more probe on an uncore
    // resource (Section 3.2).
    if (!round.coreShared && uncore_next < uncore_order.size()) {
        run_probe(sim::kUncoreResources[uncore_order[uncore_next++]]);
    }

    round.durationSec = now - t;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::MetricId::kProfilerRounds);
    metrics.add(obs::MetricId::kProfilerBenchmarksRun,
                static_cast<uint64_t>(round.benchmarksRun));
    BOLT_TRACE_SPAN("profiler.profile", "profiler",
                    static_cast<int64_t>(env.server->id()), t, now, -1,
                    {{"benchmarks", std::to_string(round.benchmarksRun)},
                     {"focus_core", std::to_string(round.focusCore)}});
    return round;
}

ProfileRound
Profiler::shutterProfile(const HostEnvironment& env, double t,
                         util::Rng& rng) const
{
    ProfileRound round;
    double now = t;

    // Sample all uncore resources in brief windows; keep the window with
    // the lowest aggregate pressure — the "shutter" that most likely
    // catches the other co-residents idle.
    double best_total = std::numeric_limits<double>::infinity();
    SparseObservation best;
    for (int w = 0; w < kShutterWindows; ++w) {
        SparseObservation obs;
        sim::ResourceVector ext = env.visibleExternal(now);
        // Capacity jitter skews whole windows; per-sample dropout and
        // spike faults are not applied here — the min-window selection
        // below is itself an outlier filter, and a dropped window is
        // indistinguishable from a high-pressure one it would discard.
        if (env.faults) {
            double jitter = env.faults->capacityFactor(now);
            for (sim::Resource r : sim::kUncoreResources)
                ext[r] = std::clamp(ext[r] * jitter, 0.0, 100.0);
        }
        double noise = env.contention->isolation().measurementNoise();
        double total = 0.0;
        for (sim::Resource r : sim::kUncoreResources) {
            // Windows are too short for a full ramp; the probe runs a
            // binary-search mini-ramp modeled as one noisy reading.
            double ci = Microbenchmark::measure(ext[r], noise * 1.4, rng,
                                                config_.intensityScale);
            obs.set(r, ci);
            total += ci;
        }
        if (total < best_total) {
            best_total = total;
            best = obs;
        }
        now += kShutterWindowSec + 0.02; // window plus inter-window gap
        ++round.benchmarksRun;
    }

    round.observation = best;
    round.durationSec = now - t;
    obs::MetricsRegistry::global().add(
        obs::MetricId::kProfilerShutterWindows,
        static_cast<uint64_t>(kShutterWindows));
    BOLT_TRACE_SPAN("profiler.shutter", "profiler",
                    static_cast<int64_t>(env.server->id()), t, now, -1,
                    {{"windows", std::to_string(kShutterWindows)}});
    return round;
}

} // namespace core
} // namespace bolt
