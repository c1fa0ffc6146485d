/**
 * @file
 * Reproduces Figure 8: workload phase detection over time. One 4-vCPU
 * victim instance runs five consecutive jobs (SPEC mcf, a Mahout-style
 * Hadoop SVM, Spark data mining, memcached, Cassandra); Bolt re-detects
 * every 20 seconds and captures each change within a few seconds.
 */
#include <iostream>

#include "core/detector.h"
#include "core/experiment.h"
#include "sim/cluster.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/generators.h"

using namespace bolt;

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(88);
    util::Rng tr = rng.substream("train");
    auto train_specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(train_specs, tr);
    core::HybridRecommender recommender(training);
    core::Detector detector(recommender);

    auto victim = workloads::phasedVictim(rng, 80.0);

    sim::Cluster cluster(1);
    sim::Tenant adversary{cluster.nextTenantId(), 4, true};
    cluster.placeOn(0, adversary);
    sim::Tenant tenant{cluster.nextTenantId(), 4, false};
    cluster.placeOn(0, tenant);

    // A fresh AppInstance per phase, but one tenant id throughout (the
    // instance runs different consecutive jobs, §3.4).
    util::Rng inst_rng = rng.substream("inst");
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

    std::cout << "== Figure 8: phase detection timeline (detection every "
                 "20 s; phases change every 80 s) ==\n";
    util::AsciiTable table({"t (s)", "true phase", "detected",
                            "similarity", "correct"});
    util::Rng drng = rng.substream("detect");
    int correct = 0, total = 0;
    int detect_round = 0;
    int phase_changes_caught = 0;
    std::string last_detected;
    for (double t = 0.0; t < victim.totalSec(); t += 20.0) {
        auto round = detector.detectOnce(env, t, drng, nullptr,
                                         detect_round++);
        const auto& truth = victim.at(t);
        std::string detected = round.topClass();
        double similarity =
            round.guesses.empty() ? 0.0 : round.guesses.front().similarity;
        bool ok = core::roundMatchesClass(round, truth);
        correct += ok ? 1 : 0;
        ++total;
        table.addRow({util::AsciiTable::num(t, 0), truth.classLabel(),
                      detected.empty() ? "(none)" : detected,
                      util::AsciiTable::num(similarity, 2),
                      ok ? "yes" : "no"});
        if (detected != last_detected && !detected.empty()) {
            last_detected = detected;
            ++phase_changes_caught;
        }
    }
    table.print(std::cout);
    std::cout << "\nTimeline accuracy: "
              << util::AsciiTable::percent(
                     static_cast<double>(correct) / total)
              << " over " << total << " detection rounds; detected label "
              << "changed " << phase_changes_caught
              << " times across 5 phases\n";
    return 0;
}
