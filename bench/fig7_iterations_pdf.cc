/**
 * @file
 * Reproduces Figure 7: the PDF of profiling+data-mining iterations
 * until correct detection, in aggregate (paper: 71% need one iteration,
 * 15% a second, none benefit past the sixth) and split by the number of
 * co-scheduled applications (more co-residents need more iterations).
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

    core::ExperimentConfig cfg;
    cfg.victims = 140;
    cfg.seed = 23;
    auto result = core::ControlledExperiment(cfg).run();

    std::cout << "== Figure 7a: PDF of iterations until detection "
                 "(paper: 71% @1, 15% @2) ==\n";
    util::AsciiTable total({"Iterations", "PDF"});
    for (const auto& [n, frac] : result.iterationsPdf())
        total.addRow({std::to_string(n),
                      util::AsciiTable::percent(frac, 1)});
    total.print(std::cout);

    std::cout << "\n== Figure 7b: PDF split by co-residents "
                 "(single-victim hosts mostly need one iteration) ==\n";
    util::AsciiTable split(
        {"Iterations", "1 app", "2 apps", "3 apps", "4 apps", "5 apps"});
    for (int iter = 1; iter <= 6; ++iter) {
        std::vector<std::string> row{std::to_string(iter)};
        for (int co = 1; co <= 5; ++co) {
            auto pdf = result.iterationsPdf(co);
            auto it = pdf.find(iter);
            row.push_back(it == pdf.end()
                              ? "-"
                              : util::AsciiTable::percent(it->second, 0));
        }
        split.addRow(std::move(row));
    }
    split.print(std::cout);
    return 0;
}
