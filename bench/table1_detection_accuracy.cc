/**
 * @file
 * Reproduces Table 1: Bolt's detection accuracy in the controlled
 * 40-server experiment with 108 victims, per application class, under
 * the least-loaded scheduler and the Quasar-style interference-aware
 * scheduler. Paper reference: aggregate 87% (LL) / 89% (Quasar);
 * memcached 78/80, Hadoop 92/92, Spark 85/86, Cassandra 90/89,
 * speccpu2006 84/85.
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

    std::cout << "== Table 1: detection accuracy, controlled experiment "
                 "(paper: 87% LL / 89% Quasar aggregate) ==\n";

    core::ExperimentConfig ll_cfg;
    ll_cfg.seed = 2017;
    auto ll = core::ControlledExperiment(ll_cfg).run();

    core::ExperimentConfig q_cfg;
    q_cfg.seed = 2017;
    q_cfg.policy = core::ExperimentConfig::Policy::Quasar;
    auto quasar = core::ControlledExperiment(q_cfg).run();

    util::AsciiTable table({"Applications", "Least Load scheduler",
                            "Quasar scheduler"});
    table.addRow({"Aggregate",
                  util::AsciiTable::percent(ll.aggregateAccuracy()),
                  util::AsciiTable::percent(quasar.aggregateAccuracy())});
    for (const char* cls : {"memcached", "Hadoop", "Spark", "Cassandra",
                            "speccpu2006"}) {
        table.addRow({cls,
                      util::AsciiTable::percent(ll.accuracyForClass(cls)),
                      util::AsciiTable::percent(
                          quasar.accuracyForClass(cls))});
    }
    table.print(std::cout);

    std::cout << "\nVictims scheduled: " << ll.outcomes.size() << " (LL), "
              << quasar.outcomes.size() << " (Quasar)\n";
    std::cout << "Resource-characteristics accuracy: "
              << util::AsciiTable::percent(ll.characteristicsAccuracy())
              << " (LL), "
              << util::AsciiTable::percent(
                     quasar.characteristicsAccuracy())
              << " (Quasar)\n";
    return 0;
}
