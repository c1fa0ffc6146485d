/**
 * @file
 * Ablation study for the design choices DESIGN.md calls out, plus the
 * obfuscation-defense extension the paper's threat model excludes:
 *
 *  1. additive decomposition vs single-match detection (disentangling),
 *  2. shutter profiling on/off (no-core-sharing hosts),
 *  3. observation carry-over across rounds (load-phase mixing),
 *  4. extra in-round probes on/off (coverage vs cost),
 *  5. friendly-VM pattern obfuscation amplitude sweep (what a victim
 *     could buy by scrambling its resource usage, and what it costs).
 */
#include <iostream>

#include "core/experiment.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/app.h"

using namespace bolt;

namespace {

double
accuracyWith(const std::function<void(core::ExperimentConfig&)>& tweak,
             uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.servers = 20;
    cfg.victims = 52;
    cfg.seed = seed;
    tweak(cfg);
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

    std::cout << "== Detector design ablations (20 hosts, 52 victims) "
                 "==\n";
    util::AsciiTable table({"Configuration", "Accuracy"});

    table.addRow({"full detector (baseline)",
                  util::AsciiTable::percent(
                      accuracyWith([](auto&) {}, 606))});
    table.addRow(
        {"no multi-tenant decomposition (single match per round)",
         util::AsciiTable::percent(accuracyWith(
             [](core::ExperimentConfig& c) {
                 c.detector.maxCoResidents = 1;
             },
             606))});
    table.addRow({"no shutter profiling",
                  util::AsciiTable::percent(accuracyWith(
                      [](core::ExperimentConfig& c) {
                          c.detector.shutterEnabled = false;
                      },
                      606))});
    table.addRow({"carry observations across rounds",
                  util::AsciiTable::percent(accuracyWith(
                      [](core::ExperimentConfig& c) {
                          c.detector.carryObservations = true;
                      },
                      606))});
    table.addRow({"no extra probes when unconfident",
                  util::AsciiTable::percent(accuracyWith(
                      [](core::ExperimentConfig& c) {
                          c.detector.extraProbesWhenUnconfident = 0;
                          c.detector.minObservedForMatch = 2;
                      },
                      606))});
    table.print(std::cout);

    std::cout << "\n== Extension: friendly-VM pattern obfuscation "
                 "(the defense §3.1 assumes away) ==\n";
    util::AsciiTable defense({"Obfuscation amplitude", "Bolt accuracy",
                              "Victim throughput cost"});
    for (double amplitude : {0.0, 0.1, 0.2, 0.35, 0.5}) {
        double acc = accuracyWith(
            [&](core::ExperimentConfig& c) {
                c.victimObfuscation = amplitude;
            },
            707);
        workloads::AppSpec probe_spec;
        probe_spec.obfuscation = amplitude;
        workloads::AppInstance probe(probe_spec, util::Rng(1));
        defense.addRow(
            {util::AsciiTable::percent(amplitude),
             util::AsciiTable::percent(acc),
             util::AsciiTable::percent(probe.obfuscationSlowdown() -
                                       1.0)});
    }
    defense.print(std::cout);
    std::cout << "\nObfuscation trades the victim's own throughput for "
                 "detectability — the same security/performance tension "
                 "as the isolation mechanisms of Section 6.\n";
    return 0;
}
