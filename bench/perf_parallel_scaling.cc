/**
 * @file
 * Parallel-scaling report for the experiment engine: runs the paper's
 * full 40-server / 108-victim controlled experiment at 1, 2, 4 and 8
 * threads (then hardware concurrency, if larger) and reports wall-clock
 * time, speedup over the single-thread run, and the detection accuracy
 * at every thread count — which must be bit-identical, since all RNG
 * streams are counter-based per task (see util::Rng::stream).
 *
 *   perf_parallel_scaling [--servers N] [--victims N] [--seed S]
 *
 * Speedup saturates at the machine's physical core count; on a
 * single-core host every configuration runs in about the same time and
 * the table mainly demonstrates the determinism guarantee.
 */
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "core/experiment.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bolt;

namespace {

/** Value of `name`, a non-negative integer; anything else exits 2. */
long long
flagValue(int argc, char** argv, const char* name, long long fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) != 0)
            continue;
        long long v = 0;
        if (!util::parseInt(argv[i + 1], &v) || v < 0) {
            std::cerr << argv[0] << ": " << name
                      << " expects a non-negative integer, got '"
                      << argv[i + 1] << "'\n";
            std::exit(2);
        }
        return v;
    }
    return fallback;
}

} // namespace

int
main(int argc, char** argv)
{
    if (!obs::applyObsFlags(argc, argv))
        return 2;
    core::ExperimentConfig cfg;
    cfg.servers =
        static_cast<size_t>(flagValue(argc, argv, "--servers", 40));
    cfg.victims =
        static_cast<size_t>(flagValue(argc, argv, "--victims", 108));
    cfg.seed = static_cast<uint64_t>(flagValue(argc, argv, "--seed", 1));

    std::vector<unsigned> counts = {1, 2, 4, 8};
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (hw > counts.back())
        counts.push_back(hw);

    std::cout << "== Parallel scaling: full " << cfg.servers
              << "-server controlled experiment (hardware threads: "
              << hw << ") ==\n";

    util::AsciiTable table(
        {"Threads", "Wall (s)", "Speedup", "Class acc", "Char acc",
         "Identical"});
    double base_sec = 0.0;
    double ref_acc = 0.0, ref_char = 0.0;
    std::vector<core::VictimOutcome> ref_outcomes;
    bool all_identical = true;

    for (unsigned n : counts) {
        util::ThreadPool::setGlobalThreads(n);
        auto start = std::chrono::steady_clock::now();
        auto result = core::ControlledExperiment(cfg).run();
        auto stop = std::chrono::steady_clock::now();
        double sec =
            std::chrono::duration<double>(stop - start).count();
        if (n == counts.front()) {
            base_sec = sec;
            ref_acc = result.aggregateAccuracy();
            ref_char = result.characteristicsAccuracy();
            ref_outcomes = result.outcomes;
        }
        bool identical =
            result.outcomes.size() == ref_outcomes.size() &&
            result.aggregateAccuracy() == ref_acc &&
            result.characteristicsAccuracy() == ref_char;
        for (size_t i = 0; identical && i < ref_outcomes.size(); ++i) {
            const auto& a = ref_outcomes[i];
            const auto& b = result.outcomes[i];
            identical = a.server == b.server &&
                        a.classCorrect == b.classCorrect &&
                        a.charCorrect == b.charCorrect &&
                        a.iterations == b.iterations &&
                        a.spec.classLabel() == b.spec.classLabel();
        }
        all_identical &= identical;
        table.addRow({std::to_string(n), util::AsciiTable::num(sec, 2),
                      util::AsciiTable::num(base_sec / sec, 2) + "x",
                      util::AsciiTable::percent(
                          result.aggregateAccuracy(), 1),
                      util::AsciiTable::percent(
                          result.characteristicsAccuracy(), 1),
                      identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    if (!all_identical) {
        std::cerr << "DETERMINISM VIOLATION: results differ across "
                     "thread counts\n";
        return 1;
    }
    return 0;
}
