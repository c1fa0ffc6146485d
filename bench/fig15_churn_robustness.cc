/**
 * @file
 * Figure 15 (extension): detection accuracy under deterministic
 * fault injection, as a function of the tenant-churn rate.
 *
 * Sweeps the per-round arrival/departure probability from 0 (the
 * paper's static controlled experiment) upward while holding a fixed
 * measurement-fault background (dropouts, spikes, capacity jitter), and
 * reports class accuracy, characteristics accuracy, how many victims
 * departed mid-detection, and the detector's abstention count. The
 * curve should decline gracefully — churn costs accuracy, it must not
 * collapse detection — and the zero-churn, zero-fault row must equal
 * the unfaulted experiment exactly (the fault layer is inert when
 * disabled).
 *
 * Output is deterministic for a given seed at any --threads value; its
 * line in bench/goldens.txt diffs it against
 * bench/BENCH_fig15_churn.golden at 1 and 8 threads.
 */
#include <iostream>
#include <sstream>

#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/report.h"
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
    // Metrics feed the abstention column; observability is inert by
    // contract (tests/test_determinism.cc, tests/test_cli.cc), so this
    // cannot change the results.
    obs::MetricsRegistry::global().setEnabled(true);

    // Churn sweep: arrival and departure share the rate; the
    // measurement-fault background is fixed so the x-axis isolates
    // churn. Rates are per host (arrivals) / per victim (departures)
    // per detection round.
    const double kChurnRates[] = {0.0, 0.02, 0.05, 0.10, 0.20, 0.35};

    std::cout << "== Figure 15: detection accuracy vs tenant-churn "
                 "rate ==\n";
    util::AsciiTable table({"Churn rate", "Class acc", "Char acc",
                            "Departed", "Abstentions", "Digest"});
    for (double rate : kChurnRates) {
        core::ExperimentConfig cfg;
        cfg.servers = 24;
        cfg.victims = 60;
        cfg.seed = 1517;
        if (rate > 0.0) {
            cfg.faults.arrivalProb = rate;
            cfg.faults.departureProb = rate;
            cfg.faults.phaseFlipProb = 0.5 * rate;
            cfg.faults.dropoutProb = 0.05;
            cfg.faults.spikeProb = 0.05;
            cfg.faults.capacityJitterAmp = 0.05;
        }

        auto& metrics = obs::MetricsRegistry::global();
        uint64_t abstained_before = 0;
        if (metrics.enabled())
            abstained_before =
                metrics.snapshot()
                    .counter(obs::MetricId::kDetectorGatedAbstentions)
                    .value;
        auto result = core::ControlledExperiment(cfg).run();
        uint64_t abstained = 0;
        if (metrics.enabled())
            abstained =
                metrics.snapshot()
                    .counter(obs::MetricId::kDetectorGatedAbstentions)
                    .value -
                abstained_before;

        std::ostringstream digest;
        digest << std::hex << result.digest();
        table.addRow(
            {util::AsciiTable::percent(rate, 0),
             util::AsciiTable::percent(result.aggregateAccuracy(), 1),
             util::AsciiTable::percent(result.characteristicsAccuracy(),
                                       1),
             std::to_string(result.departedCount()),
             metrics.enabled() ? std::to_string(abstained) : "n/a",
             digest.str()});
    }
    table.print(std::cout);
    std::cout << "\nChurn perturbs hosts mid-detection: departures "
                 "remove scored victims (they still count against "
                 "accuracy), arrivals add unscored background VMs, and "
                 "the measurement-fault background forces the detector "
                 "through its masking/retry/abstention path.\n";

    // Panel (b): measurement-dropout sweep at zero churn. Dropped
    // samples are masked, the detector re-probes with backoff, and at
    // extreme loss rates it abstains instead of guessing — accuracy
    // degrades far slower than the loss rate because abstention
    // replaces silent mislabeling.
    const double kDropoutRates[] = {0.0, 0.15, 0.30, 0.45, 0.60};
    std::cout << "\n== Panel (b): accuracy vs measurement-dropout rate "
                 "(no churn) ==\n";
    util::AsciiTable panel_b({"Dropout rate", "Class acc", "Char acc",
                              "Retry rounds", "Abstentions"});
    for (double rate : kDropoutRates) {
        core::ExperimentConfig cfg;
        cfg.servers = 24;
        cfg.victims = 60;
        cfg.seed = 1517;
        cfg.faults.dropoutProb = rate;

        auto& metrics = obs::MetricsRegistry::global();
        auto before = metrics.snapshot();
        auto result = core::ControlledExperiment(cfg).run();
        auto after = metrics.snapshot();
        auto delta = [&](obs::MetricId id) {
            return after.counter(id).value - before.counter(id).value;
        };
        panel_b.addRow(
            {util::AsciiTable::percent(rate, 0),
             util::AsciiTable::percent(result.aggregateAccuracy(), 1),
             util::AsciiTable::percent(result.characteristicsAccuracy(),
                                       1),
             std::to_string(delta(obs::MetricId::kDetectorRetryRounds)),
             std::to_string(
                 delta(obs::MetricId::kDetectorGatedAbstentions))});
    }
    panel_b.print(std::cout);
    return 0;
}
