/**
 * @file
 * Serving-layer throughput-latency curves: sweep offered load over the
 * deterministic query-serving engine (src/serve) and print, per offered
 * rate, the achieved/goodput QPS and latency percentiles of
 *
 *  - `batch-1`: micro-batching disabled (maxBatch = 1), and
 *  - `adaptive-8`: adaptive micro-batching up to 8 requests/batch.
 *
 * Everything on stdout is Sim-class — a pure function of (config,
 * seed) — so the full output is byte-identical at any --threads and is
 * committed as bench/BENCH_serving.golden, a line of the golden
 * manifest bench/goldens.txt whose ctest entry diffs fresh runs at 1
 * and 8 threads against it. Wall-clock info goes to stderr.
 *
 * The binary also self-checks the two properties the curves exist to
 * demonstrate, and exits 1 if either regresses:
 *
 *  1. at mid load (offered well under capacity), adaptive batching
 *     keeps p99 latency inside the SLO, and
 *  2. at saturation, adaptive batching achieves strictly higher QPS
 *     than batch-size-1 (amortized batch setup is the point).
 *
 * Regenerate the golden after an intentional serving change with
 * scripts/check.sh --goldens --update.
 *
 * `--json` runs the telemetry-overhead probe instead of the sweep:
 * the saturation config is timed with the windowed telemetry recorder
 * off and on in 101 interleaved pairs, stdout is one JSON object with
 * the median wall-QPS of each side and the median of the pairs'
 * regression percentages, and the exit code is 1 when that median
 * reaches 5% or telemetry perturbs the sim digest. The golden sweep
 * output is untouched by this mode.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "obs/timeseries.h"
#include "serve/engine.h"
#include "util/cli_flags.h"
#include "util/digest.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;
using util::hex64;

namespace {

constexpr double kSloMs = 50.0;
constexpr double kMidLoadQps = 800.0;
constexpr double kSaturationQps = 6400.0;
const double kOfferedQps[] = {400.0, 800.0, 1600.0, 3200.0, 6400.0};

struct ModeSpec
{
    const char* name;
    size_t maxBatch;
};
const ModeSpec kModes[] = {{"batch-1", 1}, {"adaptive-8", 8}};

/** Saturation-load config the telemetry probe uses. */
serve::ServeConfig
saturationConfig()
{
    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 256;
    cfg.maxBatch = 8;
    cfg.load.requests = static_cast<size_t>(kSaturationQps);
    cfg.load.offeredQps = kSaturationQps;
    cfg.load.sloMs = kSloMs;
    cfg.load.decomposeFraction = 0.15;
    cfg.load.seed = 1;
    return cfg;
}

/**
 * Telemetry-overhead probe (`--json`): time the saturation config with
 * the recorder off and on in `kReps` interleaved pairs, the side that
 * runs first alternating, and judge the median of the pairs' overheads.
 * One ~0.13 s pair is noisy: on a shared 4-vCPU VM at four threads its
 * overhead has a standard deviation of about 13 points, so the median
 * needs about a hundred pairs to stay a point or two from the truth.
 * Wall-QPS here is Wall-class (machine-dependent); the sim digests are
 * asserted equal so the probe also re-proves telemetry inertness end
 * to end.
 */
int
runJsonProbe(const core::HybridRecommender& recommender)
{
    auto& telemetry = obs::TimeSeriesRecorder::global();
    auto timedRun = [&](bool on, uint64_t* digest) {
        telemetry.configure(telemetry.config()); // Drop old windows.
        telemetry.setEnabled(on);
        auto t0 = std::chrono::steady_clock::now();
        auto result =
            serve::ServeEngine(recommender, saturationConfig()).run();
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        telemetry.setEnabled(false);
        *digest = result.digest();
        return wall;
    };

    constexpr int kReps = 101;
    uint64_t digest_off = 0, digest_on = 0;
    util::Summary walls_off, walls_on, overheads;
    timedRun(false, &digest_off); // Warm caches before timing.
    for (int rep = 0; rep < kReps; ++rep) {
        double off = 0.0, on = 0.0;
        if (rep % 2) {
            on = timedRun(true, &digest_on);
            off = timedRun(false, &digest_off);
        } else {
            off = timedRun(false, &digest_off);
            on = timedRun(true, &digest_on);
        }
        walls_off.add(off);
        walls_on.add(on);
        // Lost share of wall-QPS: (qps_off - qps_on) / qps_off.
        overheads.add(on > 0.0 ? (on - off) / on * 100.0 : 0.0);
    }
    telemetry.configure(telemetry.config());

    double wall_off = walls_off.percentile(50.0);
    double wall_on = walls_on.percentile(50.0);
    double qps_off = wall_off > 0.0 ? kSaturationQps / wall_off : 0.0;
    double qps_on = wall_on > 0.0 ? kSaturationQps / wall_on : 0.0;
    double overhead_pct = overheads.percentile(50.0);
    bool digests_match = digest_off == digest_on;
    bool within_budget = overhead_pct < 5.0;

    std::ostringstream os;
    os.precision(6);
    os << "{\"bench\":\"perf_serving\",\"mode\":\"telemetry-overhead\","
       << "\"saturation_qps\":" << kSaturationQps
       << ",\"requests\":" << static_cast<size_t>(kSaturationQps)
       << ",\"reps\":" << kReps
       << ",\"telemetry_off_wall_qps\":" << qps_off
       << ",\"telemetry_on_wall_qps\":" << qps_on
       << ",\"telemetry_overhead_pct\":" << overhead_pct
       << ",\"sim_digest_off\":\"" << hex64(digest_off)
       << "\",\"sim_digest_on\":\"" << hex64(digest_on)
       << "\",\"digests_match\":" << (digests_match ? "true" : "false")
       << ",\"within_budget\":" << (within_budget ? "true" : "false")
       << "}\n";
    std::cout << os.str();

    if (!digests_match) {
        std::cerr << "FAIL: telemetry perturbed the sim digest\n";
        return 1;
    }
    if (!within_budget) {
        std::cerr << "FAIL: telemetry costs "
                  << util::AsciiTable::num(overhead_pct, 2)
                  << "% of saturation wall-QPS (budget 5%)\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    util::CliArgs args;
    std::string err = util::parseProgramFlags(
        argc, argv, {{"json", util::FlagKind::Flag}}, &args);
    if (!err.empty()) {
        std::cerr << err;
        return 2;
    }

    // Same corpus construction as a serve scenario stage with seed 1.
    util::Rng rng(1);
    util::Rng tr = rng.substream("train");
    auto specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(specs, tr);
    core::HybridRecommender recommender(training);

    if (args.has("json"))
        return runJsonProbe(recommender);

    util::AsciiTable table({"Offered", "Mode", "Achieved", "Goodput",
                            "Done", "RejQ", "RejSLO", "Shed", "p50 ms",
                            "p95 ms", "p99 ms", "Batch", "Digest"});
    util::Fnv1a combined;
    // (offered, mode) -> stats used by the self-checks below.
    std::map<std::pair<double, std::string>, serve::ServeStats> sweep;

    auto wall0 = std::chrono::steady_clock::now();
    for (double qps : kOfferedQps) {
        for (const ModeSpec& mode : kModes) {
            serve::ServeConfig cfg;
            cfg.workers = 4;
            cfg.queueCapacity = 256;
            cfg.maxBatch = mode.maxBatch;
            cfg.load.requests = static_cast<size_t>(qps);
            cfg.load.offeredQps = qps;
            cfg.load.sloMs = kSloMs;
            cfg.load.decomposeFraction = 0.15;
            cfg.load.seed = 1;

            auto result = serve::ServeEngine(recommender, cfg).run();
            const serve::ServeStats& st = result.stats;
            uint64_t digest = result.digest();
            combined.u64(digest);
            sweep[{qps, mode.name}] = st;

            table.addRow(
                {util::AsciiTable::num(qps, 0), mode.name,
                 util::AsciiTable::num(st.achievedQps, 1),
                 util::AsciiTable::num(st.goodputQps, 1),
                 std::to_string(st.completed),
                 std::to_string(st.rejectedQueueFull),
                 std::to_string(st.rejectedSloInfeasible),
                 std::to_string(st.shedDeadline),
                 util::AsciiTable::num(st.latencyMs.percentile(50), 2),
                 util::AsciiTable::num(st.latencyMs.percentile(95), 2),
                 util::AsciiTable::num(st.latencyMs.percentile(99), 2),
                 util::AsciiTable::num(st.batchSizes.mean(), 2),
                 hex64(digest)});
        }
    }
    double wall_sec = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall0)
                          .count();

    std::cout << "Serving throughput-latency sweep (workers=4, "
                 "queue=256, SLO="
              << util::AsciiTable::num(kSloMs, 0)
              << " ms, decompose=0.15, seed=1)\n";
    table.print(std::cout);
    std::cout << "combined digest: " << hex64(combined.h) << "\n";

    std::cerr << "wall: " << util::AsciiTable::num(wall_sec, 2)
              << " s at " << util::ThreadPool::globalThreads()
              << " thread(s) (Wall-class, not part of the golden)\n";

    // Self-checks: the properties the curves demonstrate.
    const auto& mid = sweep[{kMidLoadQps, "adaptive-8"}];
    const auto& sat_batched = sweep[{kSaturationQps, "adaptive-8"}];
    const auto& sat_single = sweep[{kSaturationQps, "batch-1"}];
    int rc = 0;
    if (mid.latencyMs.percentile(99) > kSloMs) {
        std::cerr << "FAIL: adaptive-8 p99 at " << kMidLoadQps
                  << " qps exceeds the " << kSloMs << " ms SLO\n";
        rc = 1;
    }
    if (sat_batched.achievedQps <= sat_single.achievedQps) {
        std::cerr << "FAIL: adaptive-8 does not out-serve batch-1 at "
                  << kSaturationQps << " qps saturation\n";
        rc = 1;
    }
    return rc;
}
