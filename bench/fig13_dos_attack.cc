/**
 * @file
 * Reproduces Figure 13 and the Section 5.1 DoS impact numbers: a
 * memcached victim under (i) Bolt's victim-tailored internal DoS and
 * (ii) a naive CPU-saturating DoS, with a load-triggered live-migration
 * defense (70% CPU threshold, 8 s overhead). The naive attack drives
 * utilization over the trigger and the victim is migrated away around
 * t=80 s, after which its latency recovers; Bolt keeps utilization low
 * and continues degrading the victim. The aggregate study reports the
 * degradation bands (paper: 2.2x mean / 9.8x max execution time,
 * 8-140x tail inflation).
 */
#include <iostream>

#include "attacks/dos.h"
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
    attacks::DosTimelineExperiment experiment;
    auto bolt_run = experiment.run(true);
    auto naive_run = experiment.run(false);

    std::cout << "== Figure 13: p99 latency and host CPU utilization "
                 "over time ==\n";
    util::AsciiTable table({"t (s)", "Bolt p99 (ms)", "Bolt util",
                            "Naive p99 (ms)", "Naive util", "event"});
    for (size_t t = 0; t < bolt_run.size(); t += 10) {
        std::string event;
        if (t >= 20 && t < 30)
            event = "attack starts (post-detection)";
        if (naive_run[t].migrating)
            event = "naive victim migrating";
        else if (naive_run[t].migrated && t > 0 &&
                 !naive_run[t - 10].migrated)
            event = "naive victim on fresh host";
        table.addRow({std::to_string(t),
                      util::AsciiTable::num(bolt_run[t].p99Ms, 1),
                      util::AsciiTable::percent(
                          bolt_run[t].cpuUtil / 100.0),
                      util::AsciiTable::num(naive_run[t].p99Ms, 1),
                      util::AsciiTable::percent(
                          naive_run[t].cpuUtil / 100.0),
                      event});
    }
    table.print(std::cout);

    double nominal = bolt_run[5].p99Ms;
    std::cout << "\nTail inflation at t=110s: Bolt "
              << util::AsciiTable::num(bolt_run[110].p99Ms / nominal, 1)
              << "x vs naive "
              << util::AsciiTable::num(naive_run[110].p99Ms / nominal, 1)
              << "x (the defense neutralized the naive attack)\n";

    std::cout << "\n== Section 5.1: aggregate DoS impact over the "
                 "controlled-experiment victims ==\n";
    auto impact = attacks::dosImpactStudy();
    util::AsciiTable agg({"Metric", "Measured", "Paper"});
    agg.addRow({"Mean execution-time degradation (batch)",
                util::AsciiTable::num(impact.meanExecDegradation, 1) +
                    "x",
                "2.2x"});
    agg.addRow({"Max execution-time degradation",
                util::AsciiTable::num(impact.maxExecDegradation, 1) + "x",
                "9.8x"});
    agg.addRow({"Tail-latency inflation (kv/db victims)",
                util::AsciiTable::num(impact.minTailMultiplier, 0) +
                    "x - " +
                    util::AsciiTable::num(impact.maxTailMultiplier, 0) +
                    "x",
                "8x - 140x"});
    agg.print(std::cout);
    return 0;
}
