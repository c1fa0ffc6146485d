/**
 * @file
 * Command-line front end for libbolt (`bolt_cli help` lists the commands).
 *
 * A run subcommand (experiment, serve, attack, fleet, armsrace, detect,
 * include) is flag sugar for a one-stage scenario: the subcommand names the
 * `stage:` kind and each `--key value` becomes a key of that stage
 * (dotted keys such as --faults.arrivals open nested blocks), so
 * docs/SCENARIOS.md is the flag reference. scenario::compileFlags and
 * runScenario do all validation, seeding and output, exactly as for
 * `bolt_cli run --scenario`: `bolt_cli <kind> FLAGS` and `bolt_cli run`
 * on what `bolt_cli <kind> FLAGS --dump` prints emit the same bytes.
 *
 * --threads and the observability flags never change stdout
 * (tests/test_cli.cc checks it). Invalid input — an unknown
 * command, key or name, a malformed number, an out-of-range value —
 * exits 2 with the valid names or range; a failed `expect:` item or
 * layer self-check exits 3.
 */
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "scenario/commands.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/cli_flags.h"
#include "util/digest.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bolt;
using util::CliArgs;
using util::CliFlagSpec;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Run (or, with `dump`, print) a compiled scenario; the RunReport is
 * named after `command` ("run" or the stage subcommand).
 */
int
runCompiled(const scenario::Scenario& s, const std::string& command,
            const std::string& file, bool dump)
{
    if (dump) {
        // Canonical serialization: every key explicit, recompiles to an
        // identical graph (the round-trip the tests pin).
        std::cout << s.dump();
        return 0;
    }

    obs::RunReport report(command);
    report.set("scenario", s.name);
    if (!file.empty())
        report.set("file", file);
    report.set("seed", s.seed);
    report.set("stages", static_cast<uint64_t>(s.stages.size()));
    report.set("graph_digest", util::hex64(s.graphDigest()));
    report.set("threads",
               static_cast<uint64_t>(util::ThreadPool::globalThreads()));
    auto start = std::chrono::steady_clock::now();

    auto result = scenario::runScenario(s, std::cout);

    report.setWallSeconds(secondsSince(start));
    report.setSimSeconds(result.simSeconds);
    report.set("stages_run", static_cast<uint64_t>(result.stagesRun));
    report.set("run_digest", util::hex64(result.digest));
    report.set("failures", static_cast<uint64_t>(result.failures.size()));
    obs::writeConfiguredOutputs(report);
    for (const std::string& f : result.failures)
        std::cerr << "bolt_cli: " << f << "\n";
    return result.ok() ? 0 : 3;
}

// ------------------------------------------------------------------
// `bolt_cli report`: post-run analyzer over a --telemetry-out dump.
// Everything below derives purely from the file, so the report for a
// given dump is byte-identical wherever it is rendered.

/**
 * Render (window, value) points as a fixed-ramp ASCII sparkline over at
 * most `cols` columns spanning windows [wMin, wMax]. A column shows the
 * mean over every window it covers (absent windows count as 0). Points
 * aggregate straight into the columns, so memory stays O(cols) whatever
 * the window ids.
 */
std::string
sparkline(const std::vector<std::pair<int64_t, double>>& values,
          int64_t wMin, int64_t wMax, size_t cols)
{
    static const char kRamp[] = " .:-=+*#%@";
    const size_t levels = sizeof kRamp - 2; // Index of the top glyph.
    using Wide = unsigned __int128;
    auto offset = [wMin](int64_t w) {
        return static_cast<Wide>(static_cast<uint64_t>(w) -
                                 static_cast<uint64_t>(wMin));
    };
    const Wide span = offset(wMax) + 1;
    cols = static_cast<size_t>(std::min<Wide>(cols, span));
    std::vector<double> col(cols, 0.0);
    for (const auto& [w, v] : values)
        col[static_cast<size_t>(offset(w) * cols / span)] += v;
    double peak = 0.0;
    for (size_t c = 0; c < cols; ++c) {
        // Column c covers windows [ceil(c*span/cols), ceil((c+1)*span/cols)).
        Wide first = (Wide(c) * span + cols - 1) / cols;
        Wide next = (Wide(c + 1) * span + cols - 1) / cols;
        col[c] /= static_cast<double>(next - first);
        peak = std::max(peak, col[c]);
    }
    std::string out(cols, ' ');
    for (size_t c = 0; c < cols; ++c) {
        if (peak <= 0.0 || col[c] <= 0.0)
            continue;
        size_t lvl = 1 + static_cast<size_t>((col[c] / peak) *
                                             static_cast<double>(levels - 1));
        out[c] = kRamp[std::min(lvl, levels)];
    }
    return out;
}

int
runReport(const CliArgs& args)
{
    std::string path = args.get("telemetry", "");
    if (path.empty()) {
        std::cerr << "bolt_cli: report requires --telemetry <file> (a "
                     "--telemetry-out dump)\n";
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::cerr << "bolt_cli: cannot open '" << path << "'\n";
        return 2;
    }
    obs::TelemetryDump dump;
    std::string err;
    if (!obs::readTelemetryJsonl(in, path, &dump, &err)) {
        std::cerr << "bolt_cli: " << err << "\n";
        return 2;
    }
    const auto& points = dump.points;
    const auto& alerts = dump.alerts;

    int64_t wMin = 0, wMax = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        wMin = i ? std::min(wMin, points[i].window) : points[i].window;
        wMax = i ? std::max(wMax, points[i].window) : points[i].window;
    }

    // Group by (series, label), insertion order = export order.
    std::vector<std::pair<std::string, std::vector<size_t>>> groups;
    for (size_t i = 0; i < points.size(); ++i) {
        std::string key = points[i].series;
        if (!points[i].label.empty())
            key += "[" + points[i].label + "]";
        if (groups.empty() || groups.back().first != key)
            groups.emplace_back(key, std::vector<size_t>{});
        groups.back().second.push_back(i);
    }

    double window_sec = dump.windowSec;
    std::cout << "telemetry report: " << path << "\n"
              << "windows " << wMin << ".." << wMax << " ("
              << util::AsciiTable::num(window_sec, window_sec < 1 ? 3 : 0)
              << "s each), " << groups.size() << " series, "
              << points.size() << " points, " << alerts.size()
              << " alert events, dropped=" << dump.seriesDropped << "\n\n";

    // Per-series sparkline table: counts for counter series, per-window
    // means for sample series.
    util::AsciiTable table({"Series", "Windows", "Total", "Mean", "Spark"});
    for (const auto& [key, idx] : groups) {
        uint64_t total = 0;
        double weighted = 0.0;
        bool sample = false;
        std::vector<std::pair<int64_t, double>> values;
        for (size_t i : idx) {
            const obs::TelemetryPointRecord& p = points[i];
            total += p.count;
            weighted += p.mean * static_cast<double>(p.count);
            sample = sample || p.sample;
            values.emplace_back(p.window, sample ? p.mean
                                                 : static_cast<double>(
                                                       p.count));
        }
        double mean =
            total ? weighted / static_cast<double>(total) : 0.0;
        table.addRow({key, std::to_string(idx.size()),
                      std::to_string(total),
                      sample ? util::AsciiTable::num(mean, 2) : "-",
                      sparkline(values, wMin, wMax, 48)});
    }
    table.print(std::cout);

    // SLO-violation timeline.
    std::cout << "\nslo alerts:" << (alerts.empty() ? " none\n" : "\n");
    for (const obs::AlertEvent& a : alerts) {
        std::cout << "  " << (a.firing ? "fired   " : "resolved") << " "
                  << a.rule << "  window " << a.window
                  << " (t=" << util::AsciiTable::num(a.t, 0)
                  << "s) value=" << util::AsciiTable::num(a.value, 2);
        if (a.epoch > 1)
            std::cout << " epoch=" << a.epoch;
        std::cout << "\n";
    }

    // Queue/batch occupancy profile.
    bool any_occ = false;
    for (const auto& [key, idx] : groups) {
        const std::string& series = points[idx.front()].series;
        if (series != "serve.queue_depth" && series != "serve.batch_size")
            continue;
        if (!any_occ)
            std::cout << "\noccupancy:\n";
        any_occ = true;
        uint64_t total = 0;
        double weighted = 0.0, peak = 0.0, p99 = 0.0;
        for (size_t i : idx) {
            const obs::TelemetryPointRecord& p = points[i];
            total += p.count;
            weighted += p.mean * static_cast<double>(p.count);
            peak = std::max(peak, p.mean);
            p99 = std::max(p99, p.p99);
        }
        std::cout << "  " << key << ": samples=" << total << " mean="
                  << util::AsciiTable::num(
                         total ? weighted / static_cast<double>(total)
                               : 0.0,
                         2)
                  << " peak-window-mean=" << util::AsciiTable::num(peak, 2)
                  << " max-p99=" << util::AsciiTable::num(p99, 2) << "\n";
    }

    // Top-k tenant attribution per firing alert window range.
    int top = static_cast<int>(args.getInt("top", 5));
    for (size_t a = 0; a < alerts.size(); ++a) {
        if (!alerts[a].firing)
            continue;
        int64_t wStart = alerts[a].window;
        int64_t wEnd = wMax;
        for (size_t b = a + 1; b < alerts.size(); ++b) {
            if (alerts[b].rule == alerts[a].rule && !alerts[b].firing) {
                wEnd = alerts[b].window;
                break;
            }
        }
        std::vector<std::pair<std::string, uint64_t>> tenants;
        for (const obs::TelemetryPointRecord& p : points) {
            if (p.series != "serve.tenant_requests" || p.window < wStart ||
                p.window > wEnd)
                continue;
            auto it = std::find_if(
                tenants.begin(), tenants.end(),
                [&p](const auto& t) { return t.first == p.label; });
            if (it == tenants.end())
                tenants.emplace_back(p.label, p.count);
            else
                it->second += p.count;
        }
        if (tenants.empty())
            continue;
        std::stable_sort(tenants.begin(), tenants.end(),
                         [](const auto& x, const auto& y) {
                             return x.second > y.second;
                         });
        std::cout << "\nattribution for " << alerts[a].rule
                  << " (windows " << wStart << ".." << wEnd << ", top "
                  << top << " by serve.tenant_requests):\n";
        for (size_t i = 0;
             i < tenants.size() && i < static_cast<size_t>(top); ++i)
            std::cout << "  " << tenants[i].first << ": "
                      << tenants[i].second << "\n";
    }
    return 0;
}

void
usage(std::ostream& os)
{
    os << "usage: bolt_cli <command> [--flag value ...]\n"
          "run commands (flag sugar for a one-stage scenario; every\n"
          "stages[] key of docs/SCENARIOS.md is a flag, dotted for\n"
          "nested blocks, e.g. --faults.arrivals 0.1 --arrival.shape\n"
          "diurnal; --seed S sets the stage seed):\n"
          "  experiment  controlled detection experiment (Section 3.4)\n"
          "  serve       serving-layer load test\n"
          "  attack      --kind dos|coresidency attack campaign\n"
          "  fleet       fleet-scale sharded simulation\n"
          "  armsrace    one placement arms-race cell\n"
          "  detect      --family NAME one-host detection round\n"
          "  include     --path FILE sub-scenario\n"
          "  run         --scenario FILE (a declarative .scn file)\n"
          "  run paths take --dump (print the compiled scenario) and\n"
          "  exit 3 when an `expect:` item or a self-check fails\n"
          "other commands:\n"
          "  report      --telemetry FILE (a --telemetry-out dump)\n"
          "              --top N (tenants per alert attribution, "
          "default 5)\n"
          "  help        print this message\n"
          "common flags (any command):\n"
          "  --threads N         0 = hardware; never changes results\n"
          "  --metrics-out FILE  RunReport JSON: config + metrics "
          "snapshot\n"
          "  --trace-out FILE    sim-time trace (Chrome JSON; .jsonl "
          "= JSONL)\n"
          "  --telemetry-out FILE  windowed time-series + alerts "
          "(JSONL)\n"
          "  --telemetry-window SEC  window width (default 1)\n"
          "  --log-level L       error|warn|info|debug (default warn)\n"
          "invalid input exits 2 with the valid names or range\n";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string command = argc >= 2 ? argv[1] : "";
    if (command == "help" || command == "--help" || command == "-h") {
        usage(std::cout);
        return 0;
    }
    scenario::StageKind kind{};
    bool stage_command =
        util::enumFromKey(scenario::kStageKindKeys, command, &kind);
    const std::vector<CliFlagSpec>* spec =
        stage_command         ? &scenario::kStageCliFlags
        : command == "run"    ? &scenario::kRunCliFlags
        : command == "report" ? &scenario::kReportCliFlags
                              : nullptr;
    if (!spec) {
        if (!command.empty())
            std::cerr << "bolt_cli: unknown command '" << command << "'\n";
        usage(std::cerr);
        return 2;
    }

    // Stage commands pass every other --key value pair through to the
    // scenario compiler, which owns their validation.
    CliArgs args;
    std::vector<std::string> stage_flags;
    std::string err = util::parseProgramFlags(
        argc, argv, *spec, &args, 2, stage_command ? &stage_flags : nullptr);
    if (!err.empty()) {
        std::cerr << err;
        if (stage_command)
            std::cerr << "plus the " << command
                      << " stage keys of docs/SCENARIOS.md\n";
        return 2;
    }
    // Only a run that starts writes the --*-out files (runCompiled); a
    // report, a --dump or an invalid scenario leaves none.
    obs::skipOutputsAtExit();

    if (command == "report")
        return runReport(args);

    scenario::Scenario s;
    std::string file = args.get("scenario", "");
    bool ok = false;
    if (stage_command) {
        ok = scenario::compileFlags(command, stage_flags, &s, &err);
    } else if (file.empty()) {
        err = "run requires --scenario <file>";
    } else {
        ok = scenario::compileFile(file, &s, &err);
    }
    if (!ok) {
        std::cerr << "bolt_cli: " << err << "\n";
        return 2;
    }
    return runCompiled(s, command, file, args.has("dump"));
}
