/**
 * @file
 * Reproduces Figure 14: detection accuracy under cumulatively-applied
 * isolation mechanisms (thread pinning, network bandwidth partitioning,
 * DRAM bandwidth isolation, LLC partitioning via CAT, and core
 * isolation) on baremetal, container and VM platforms. Paper shape:
 * accuracy declines from ~81% to ~50% as mechanisms stack, cache
 * partitioning is the sharpest single drop, core isolation collapses
 * containers/VMs to ~14% (disk-heavy workloads remain detectable),
 * core isolation alone still allows 46%, and the performance cost of
 * core isolation is ~34% (or 45% utilization loss if overprovisioned).
 */
#include <iostream>

#include "core/experiment.h"
#include "util/cli_flags.h"
#include "util/table.h"

using namespace bolt;

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }

    struct Step
    {
        const char* label;
        sim::IsolationConfig (*make)(sim::Platform);
    };
    const std::vector<Step> ladder = {
        {"None", &sim::IsolationConfig::none},
        {"Thread Pinning", &sim::IsolationConfig::withThreadPinning},
        {"+Net BW Partitioning",
         &sim::IsolationConfig::withNetPartitioning},
        {"+Mem BW Partitioning",
         &sim::IsolationConfig::withMemBwPartitioning},
        {"+Cache Partitioning",
         &sim::IsolationConfig::withCachePartitioning},
        {"+Core Isolation", &sim::IsolationConfig::withCoreIsolation},
        {"Core Isolation only",
         &sim::IsolationConfig::coreIsolationOnly},
    };
    const std::vector<sim::Platform> platforms = {
        sim::Platform::Baremetal, sim::Platform::Container,
        sim::Platform::VirtualMachine};

    std::cout << "== Figure 14: detection accuracy vs isolation "
                 "techniques ==\n";
    util::AsciiTable table({"Isolation", "Baremetal", "Containers",
                            "Virtual Machines"});
    for (const auto& step : ladder) {
        std::vector<std::string> row{step.label};
        for (sim::Platform p : platforms) {
            core::ExperimentConfig cfg;
            cfg.servers = 24;
            cfg.victims = 60;
            cfg.seed = 4242;
            cfg.isolation = step.make(p);
            auto result = core::ControlledExperiment(cfg).run();
            row.push_back(
                util::AsciiTable::percent(result.aggregateAccuracy()));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    // The security/performance trade-off the paper closes with.
    auto core_iso =
        sim::IsolationConfig::coreIsolationOnly(sim::Platform::Container);
    std::cout << "\nCore-isolation performance penalty for a 2-thread "
                 "job: "
              << util::AsciiTable::percent(
                     core_iso.selfContentionPenalty(2) - 1.0)
              << " (paper: 34% average execution-time penalty)\n";
    std::cout << "Overprovisioning to avoid that penalty doubles the "
                 "core reservation: utilization drops by "
              << util::AsciiTable::percent(0.45)
              << " in the paper's accounting\n";
    return 0;
}
