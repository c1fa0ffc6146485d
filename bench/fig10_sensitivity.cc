/**
 * @file
 * Reproduces Figure 10: sensitivity of detection accuracy to (a) the
 * profiling interval (accuracy drops sharply past ~30 s on changing
 * workloads; 5-minute profiling misses half), (b) the adversarial VM
 * size (below 4 vCPUs the probes cannot generate enough contention;
 * larger VMs help but co-residency becomes unlikely), and (c) the
 * number of profiling microbenchmarks (one is insufficient, returns
 * diminish past three).
 */
#include <iostream>

#include "core/detector.h"
#include "core/experiment.h"
#include "sim/cluster.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/generators.h"
#include "util/thread_pool.h"

using namespace bolt;

namespace {

/**
 * (a) Profiling-interval sweep: a victim running consecutive jobs is
 * re-detected every `interval` seconds; accuracy is the fraction of
 * checkpoints where the latest detection still matches the job then
 * running.
 */
double
intervalAccuracy(double interval_sec, uint64_t seed)
{
    util::Rng rng(seed);
    util::Rng tr = rng.substream("train");
    auto train_specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(train_specs, tr);
    core::HybridRecommender recommender(training);
    core::Detector detector(recommender);

    // The six trial runs are independent (every RNG stream below is a
    // pure function of (seed, run)), so they fan out on the global
    // thread pool; per-run tallies land in their own slots and the sum
    // is thread-count invariant.
    constexpr size_t kRuns = 6;
    std::vector<int> run_correct(kRuns, 0), run_total(kRuns, 0);
    util::parallelFor(0, kRuns, [&](size_t run_idx) {
        int run = static_cast<int>(run_idx);
        int correct = 0, total = 0;
        util::Rng victim_rng = rng.substream("v", run);
        auto victim = workloads::phasedVictim(victim_rng, 70.0);
        sim::Cluster cluster(1);
        sim::Tenant adversary{cluster.nextTenantId(), 4, true};
        cluster.placeOn(0, adversary);
        sim::Tenant tenant{cluster.nextTenantId(), 4, false};
        cluster.placeOn(0, tenant);
        util::Rng inst_rng = rng.substream("inst", run);
        std::vector<workloads::AppInstance> instances;
        for (const auto& spec : victim.phases)
            instances.emplace_back(
                spec, inst_rng.substream("p", instances.size()));
        sim::ContentionModel contention(cluster.isolation());
        core::HostEnvironment env;
        env.server = &cluster.server(0);
        env.adversary = adversary.id;
        env.contention = &contention;
        env.pressureAt = [&](double t) {
            auto idx = std::min(
                victim.phases.size() - 1,
                static_cast<size_t>(std::max(0.0, t) / victim.phaseSec));
            sim::PressureMap pm;
            pm[tenant.id] = instances[idx].pressureAt(t);
            return pm;
        };
        util::Rng drng = rng.substream("d", run);

        // Detections happen every interval; correctness is checked 5 s
        // after each detection (the information's consumer acts on the
        // most recent label).
        std::string latest;
        double last_detection = -1e9;
        int detect_round = 0;
        for (double t = 0.0; t < victim.totalSec(); t += 5.0) {
            if (t - last_detection >= interval_sec) {
                auto round = detector.detectOnce(env, t, drng,
                                                 nullptr,
                                                 detect_round++);
                latest = round.topClass();
                last_detection = t;
            }
            ++total;
            correct +=
                latest == victim.at(t).classLabel() ? 1 : 0;
        }
        run_correct[run_idx] = correct;
        run_total[run_idx] = total;
    }, 1);
    int correct = 0, total = 0;
    for (size_t i = 0; i < kRuns; ++i) {
        correct += run_correct[i];
        total += run_total[i];
    }
    return static_cast<double>(correct) / static_cast<double>(total);
}

/** (b)/(c) small controlled experiments with one knob changed. */
double
experimentAccuracy(int adversary_vcpus, int benchmarks, uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.servers = 20;
    cfg.victims = 48;
    cfg.seed = seed;
    cfg.adversaryVcpus = adversary_vcpus;
    // The VM-size sweep spans EC2 on-demand sizes up to 16 vCPUs; hosts
    // are c3.8xlarge-like (32 hardware threads) so even the largest
    // adversary leaves room for victims.
    cfg.coresPerServer = 16;
    cfg.detector.profiler.benchmarks = benchmarks;
    // The probe intensity an adversarial VM can reach scales with its
    // size up to the 4-vCPU knee (Fig. 10b).
    cfg.detector.profiler.intensityScale =
        std::min(1.0, adversary_vcpus / 4.0);
    if (benchmarks <= 2) {
        cfg.detector.extraProbesWhenUnconfident =
            std::max(0, benchmarks * 2 - 2);
        cfg.detector.minObservedForMatch = benchmarks + 1;
    } else {
        cfg.detector.extraProbesWhenUnconfident = benchmarks;
        cfg.detector.minObservedForMatch = std::min(6, benchmarks + 1);
    }
    return core::ControlledExperiment(cfg).run().aggregateAccuracy();
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }

    std::cout << "== Figure 10a: accuracy vs profiling interval "
                 "(paper: rapid drop past 30 s) ==\n";
    util::Series interval{"accuracy (%)", {}, {}};
    for (double sec : {10.0, 20.0, 30.0, 60.0, 120.0, 300.0}) {
        interval.xs.push_back(sec);
        interval.ys.push_back(intervalAccuracy(sec, 99) * 100.0);
    }
    util::printSeries(std::cout, "profiling interval sweep",
                      "interval (s)", {interval}, 0);

    std::cout << "\n== Figure 10b: accuracy vs adversarial VM size "
                 "(paper: <4 vCPUs insufficient) ==\n";
    util::Series size{"accuracy (%)", {}, {}};
    for (int vcpus : {1, 2, 4, 8, 16}) {
        size.xs.push_back(vcpus);
        size.ys.push_back(experimentAccuracy(vcpus, 2, 101) * 100.0);
    }
    util::printSeries(std::cout, "adversarial VM size sweep", "vCPUs",
                      {size}, 0);

    std::cout << "\n== Figure 10c: accuracy vs number of benchmarks "
                 "(paper: plateau past 3) ==\n";
    util::Series probes{"accuracy (%)", {}, {}};
    for (int b : {1, 2, 3, 4, 6, 8, 10}) {
        probes.xs.push_back(b);
        probes.ys.push_back(experimentAccuracy(4, b, 102) * 100.0);
    }
    util::printSeries(std::cout, "profiling benchmarks sweep",
                      "benchmarks", {probes}, 0);
    return 0;
}
