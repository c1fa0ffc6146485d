/**
 * @file
 * Calibration/ablation harness: runs the controlled experiment at three
 * co-residency densities and prints the accuracy statistics every other
 * figure builds on. Not a paper figure itself, but the quickest way to
 * verify the detection stack is in the paper's operating regime.
 */
#include <iostream>

#include "core/experiment.h"
#include "util/cli_flags.h"
#include "util/table.h"

using namespace bolt;

namespace {

void
report(const char* title, const core::ExperimentResult& result)
{
    std::cout << "== " << title << " ==\n";
    std::cout << "  victims: " << result.outcomes.size()
              << "  class-accuracy: "
              << util::AsciiTable::percent(result.aggregateAccuracy(), 1)
              << "  characteristics-accuracy: "
              << util::AsciiTable::percent(result.characteristicsAccuracy(),
                                           1)
              << "\n  by co-residents:";
    for (const auto& [n, acc] : result.accuracyByCoResidents())
        std::cout << "  " << n << "->"
                  << util::AsciiTable::percent(acc, 0);
    std::cout << "\n  iterations pdf:";
    for (const auto& [n, frac] : result.iterationsPdf())
        std::cout << "  " << n << ":"
                  << util::AsciiTable::percent(frac, 0);
    std::cout << "\n\n";
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }

    {
        core::ExperimentConfig cfg;
        cfg.victims = 40;
        cfg.maxVictimsPerServer = 1;
        cfg.seed = 11;
        report("single victim per host",
               core::ControlledExperiment(cfg).run());
    }
    {
        core::ExperimentConfig cfg; // paper defaults: 108 victims
        cfg.seed = 12;
        report("controlled experiment (LL)",
               core::ControlledExperiment(cfg).run());
    }
    {
        core::ExperimentConfig cfg;
        cfg.victims = 180;
        cfg.seed = 13;
        report("dense co-residency",
               core::ControlledExperiment(cfg).run());
    }
    return 0;
}
