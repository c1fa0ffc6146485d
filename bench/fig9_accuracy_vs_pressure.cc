/**
 * @file
 * Reproduces Figure 9: detection accuracy as a function of the pressure
 * a victim places in each shared resource. The paper finds very low and
 * very high pressure carry the most detection value, with a dip at
 * moderate pressure (e.g. the 20-50% disk-bandwidth region where many
 * application classes overlap).
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

    // Every seed's outcomes, pooled.
    core::ExperimentResult pooled;
    for (uint64_t seed : {31, 32, 33}) {
        core::ExperimentConfig cfg;
        cfg.victims = 140;
        cfg.seed = seed;
        auto result = core::ControlledExperiment(cfg).run();
        pooled.outcomes.insert(pooled.outcomes.end(),
                               result.outcomes.begin(),
                               result.outcomes.end());
    }
    const sim::Resource columns[] = {
        sim::Resource::L1I,    sim::Resource::LLC,   sim::Resource::CPU,
        sim::Resource::MemCap, sim::Resource::NetBw, sim::Resource::DiskBw};
    std::map<sim::Resource, std::map<int, std::pair<double, int>>> bins;
    for (sim::Resource r : columns)
        bins[r] = pooled.accuracyByPressure(r);

    std::cout << "== Figure 9: accuracy vs victim resource pressure "
                 "(paper: extremes detect best) ==\n";
    util::AsciiTable table({"Pressure bin", "L1-i", "LLC", "CPU",
                            "MemCap", "NetBW", "DiskBW"});
    for (int lo = 0; lo <= 80; lo += 20) {
        std::vector<std::string> row{
            std::to_string(lo) + "-" + std::to_string(lo + 20) + "%"};
        for (sim::Resource r : columns) {
            auto it = bins[r].find(lo);
            row.push_back(it == bins[r].end()
                              ? "-"
                              : util::AsciiTable::percent(it->second.first));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "(bins with '-' had no victims whose profile falls "
                 "there)\n";
    return 0;
}
