/** Tests for the observability layer: metrics registry, sim-time
 *  tracer, leveled logger and RunReport (src/obs/), and the
 *  observability flags as every program parses them
 *  (util::parseProgramFlags). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/cli_flags.h"
#include "json_validator.h"

using namespace bolt;
using bolt::test::JsonValidator;

namespace {

/**
 * Run `tokens` through the programs' flag prologue with no flags of
 * its own; unknown flags pass through to *rest when given. @return the
 * diagnostic ("" on success).
 */
std::string
parseFlags(std::vector<std::string> tokens,
           std::vector<std::string>* rest = nullptr)
{
    std::vector<char*> argv = {const_cast<char*>("prog")};
    for (std::string& t : tokens)
        argv.push_back(t.data());
    return util::parseProgramFlags(static_cast<int>(argv.size()),
                                   argv.data(), {}, nullptr, 1, rest);
}

TEST(ObsMetrics, DisabledByDefaultRecordsNothing)
{
    obs::MetricsRegistry reg;
    EXPECT_FALSE(reg.enabled());
    reg.add(obs::MetricId::kDetectorRounds, 5);
    reg.observe(obs::MetricId::kDetectorRoundSimSec, 3.0);
    reg.gaugeMax(obs::MetricId::kServeQueueDepthPeak, 7.0);
    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter(obs::MetricId::kDetectorRounds).value, 0u);
    EXPECT_EQ(snap.histogram(obs::MetricId::kDetectorRoundSimSec).count,
              0u);
    EXPECT_FALSE(snap.gauge(obs::MetricId::kServeQueueDepthPeak).everSet);
    EXPECT_EQ(snap.shards, 0u);
}

TEST(ObsMetrics, CountersAccumulateAndReset)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::MetricId::kDetectorRounds);
    reg.add(obs::MetricId::kDetectorRounds, 41);
    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter(obs::MetricId::kDetectorRounds).value, 42u);
    EXPECT_EQ(snap.counter(obs::MetricId::kSchedPicks).value, 0u);

    reg.reset();
    snap = reg.snapshot();
    EXPECT_EQ(snap.counter(obs::MetricId::kDetectorRounds).value, 0u);
}

TEST(ObsMetrics, HistogramClampsToEdgeBuckets)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    const auto id = obs::MetricId::kDetectorRoundSimSec; // [0, 60), 60 bins
    reg.observe(id, -5.0);  // below lo -> first bucket
    reg.observe(id, 0.5);   // first bucket
    reg.observe(id, 30.5);  // bucket 30
    reg.observe(id, 999.0); // above hi -> last bucket
    obs::Snapshot snap = reg.snapshot();
    const obs::HistogramSnapshot& h = snap.histogram(id);
    EXPECT_EQ(h.count, 4u);
    EXPECT_NEAR(h.sum, -5.0 + 0.5 + 30.5 + 999.0, 1e-12);
    EXPECT_EQ(h.buckets.front(), 2u);
    EXPECT_EQ(h.buckets[30], 1u);
    EXPECT_EQ(h.buckets.back(), 1u);
    EXPECT_NEAR(h.binCenter(30), 30.5, 1e-12);
    EXPECT_NEAR(h.mean(), h.sum / 4.0, 1e-12);
}

TEST(ObsMetrics, PercentileOfEmptyHistogramIsNaN)
{
    obs::MetricsRegistry reg;
    obs::Snapshot snap = reg.snapshot();
    const auto& h =
        snap.histogram(obs::MetricId::kDetectorRoundSimSec);
    // Documented sentinel: empty histograms have no percentiles; NaN
    // renders as null in the JSON exports.
    EXPECT_TRUE(std::isnan(h.percentile(50.0)));
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(100.0)));
}

TEST(ObsMetrics, PercentileEdgeSentinelsUseOccupiedBuckets)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    const auto id = obs::MetricId::kDetectorRoundSimSec; // [0,60), 60 bins
    // Single occupied bucket away from the range edges: p0 resolves to
    // that bucket's low edge and p100 to its high edge — never to the
    // histogram's configured lo/hi.
    reg.observe(id, 42.5);
    obs::Snapshot snap = reg.snapshot();
    const auto& h = snap.histogram(id);
    EXPECT_NEAR(h.percentile(0.0), 42.0, 1e-12);
    EXPECT_NEAR(h.percentile(100.0), 43.0, 1e-12);
    EXPECT_NEAR(h.percentile(-5.0), 42.0, 1e-12); // clamped
    EXPECT_NEAR(h.percentile(500.0), 43.0, 1e-12);
}

TEST(ObsMetrics, PercentileWalksUniformBucketsLinearly)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    const auto id = obs::MetricId::kDetectorRoundSimSec; // [0,60), 60 bins
    // One sample per bucket: the cumulative distribution is uniform
    // over [0, 60), so percentile(p) ~ 60 * p/100.
    for (int b = 0; b < 60; ++b)
        reg.observe(id, b + 0.5);
    obs::Snapshot snap = reg.snapshot();
    const auto& h = snap.histogram(id);
    EXPECT_NEAR(h.percentile(50.0), 30.0, 1e-12);
    EXPECT_NEAR(h.percentile(95.0), 57.0, 1e-12);
    EXPECT_NEAR(h.percentile(99.0), 59.4, 1e-12);
    EXPECT_NEAR(h.percentile(100.0), 60.0, 1e-12);
    EXPECT_NEAR(h.percentile(0.0), 0.0, 1e-12);
}

TEST(ObsMetrics, PercentileInterpolatesInsideTheCrossingBucket)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    const auto id = obs::MetricId::kDetectorRoundSimSec;
    // All four samples land in bucket 30 ([30, 31)): percentiles slide
    // linearly across that one bucket.
    for (int i = 0; i < 4; ++i)
        reg.observe(id, 30.5);
    obs::Snapshot snap = reg.snapshot();
    const auto& h = snap.histogram(id);
    EXPECT_NEAR(h.percentile(25.0), 30.25, 1e-12);
    EXPECT_NEAR(h.percentile(50.0), 30.5, 1e-12);
    EXPECT_NEAR(h.percentile(100.0), 31.0, 1e-12);
    // Out-of-range p clamps rather than extrapolating.
    EXPECT_EQ(h.percentile(-10.0), h.percentile(0.0));
    EXPECT_EQ(h.percentile(400.0), h.percentile(100.0));
}

TEST(ObsReport, SnapshotJsonCarriesPercentiles)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.observe(obs::MetricId::kDetectorRoundSimSec, 12.5);
    std::ostringstream os;
    obs::writeSnapshotJson(os, reg.snapshot(), 0);
    const std::string json = os.str();
    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(ObsMetrics, GaugeTracksMaximum)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    const auto id = obs::MetricId::kServeQueueDepthPeak;
    reg.gaugeMax(id, 3.0);
    reg.gaugeMax(id, 9.0);
    reg.gaugeMax(id, 5.0); // lower: must not regress the max
    obs::Snapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.gauge(id).everSet);
    EXPECT_DOUBLE_EQ(snap.gauge(id).value, 9.0);
}

TEST(ObsMetrics, ShardsMergeAcrossThreads)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                reg.add(obs::MetricId::kPoolTasksExecuted);
                reg.observe(obs::MetricId::kDetectorRoundSimSec,
                            static_cast<double>(i % 60));
            }
        });
    }
    for (auto& t : threads)
        t.join();

    obs::Snapshot snap = reg.snapshot();
    const obs::CounterSnapshot& c =
        snap.counter(obs::MetricId::kPoolTasksExecuted);
    EXPECT_EQ(c.value, kPerThread * kThreads);
    // pool.tasks_executed keeps the per-shard breakdown; each worker
    // thread contributed exactly kPerThread.
    ASSERT_EQ(c.perShard.size(), static_cast<size_t>(kThreads));
    for (uint64_t v : c.perShard)
        EXPECT_EQ(v, kPerThread);
    EXPECT_EQ(snap.shards, static_cast<size_t>(kThreads));

    const obs::HistogramSnapshot& h =
        snap.histogram(obs::MetricId::kDetectorRoundSimSec);
    EXPECT_EQ(h.count, kPerThread * kThreads);
    uint64_t bucket_total = 0;
    for (uint64_t b : h.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, h.count);
}

TEST(ObsMetrics, CatalogNamesAreUniqueAndDotted)
{
    std::vector<std::string> names;
    for (size_t i = 0; i < obs::kNumMetrics; ++i) {
        const obs::MetricInfo& info =
            obs::metricInfo(static_cast<obs::MetricId>(i));
        EXPECT_EQ(info.id, static_cast<obs::MetricId>(i));
        EXPECT_NE(std::string(info.name).find('.'), std::string::npos)
            << info.name;
        names.push_back(info.name);
        if (info.kind == obs::MetricKind::Histogram) {
            EXPECT_GT(info.bins, 0u) << info.name;
            EXPECT_LT(info.lo, info.hi) << info.name;
        }
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(ObsTracer, DisabledRecordsNothingAndSkipsArgEvaluation)
{
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.setEnabled(false);
    tracer.clear();
    int evaluations = 0;
    auto costly = [&evaluations] {
        ++evaluations;
        return std::string("x");
    };
    BOLT_TRACE_SPAN("test.span", "test", 0, 0.0, 1.0, -1,
                    {{"k", costly()}});
    EXPECT_TRUE(tracer.sortedEvents().empty());
    EXPECT_EQ(evaluations, 0); // macro must not evaluate args when off
}

TEST(ObsTracer, SortedEventsAreContentOrdered)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.span("late", "t", 2, 5.0, 6.0);
    tracer.span("early", "t", 1, 1.0, 2.0, 3);
    tracer.instant("mid", "t", 7, 3.0);
    auto events = tracer.sortedEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].name, "early");
    EXPECT_EQ(events[0].round, 3);
    EXPECT_EQ(events[0].tsUs, 1000000);
    EXPECT_EQ(events[0].durUs, 1000000);
    EXPECT_EQ(events[1].name, "mid");
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[2].name, "late");
}

TEST(ObsTracer, ExportIsThreadCountInvariant)
{
    // The same logical events recorded from 1 thread and from 4 threads
    // must export byte-identically: content sort, not arrival order.
    auto record = [](obs::Tracer& tracer, int threads) {
        tracer.setEnabled(true);
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&tracer, t, threads] {
                for (int i = t; i < 40; i += threads) {
                    tracer.span("span" + std::to_string(i), "t", i % 5,
                                i * 0.25, i * 0.25 + 0.1, i);
                }
            });
        }
        for (auto& t : pool)
            t.join();
    };
    obs::Tracer seq, par;
    record(seq, 1);
    record(par, 4);
    std::ostringstream a, b;
    seq.writeChromeTrace(a);
    par.writeChromeTrace(b);
    EXPECT_EQ(a.str(), b.str());
    std::ostringstream aj, bj;
    seq.writeJsonl(aj);
    par.writeJsonl(bj);
    EXPECT_EQ(aj.str(), bj.str());
}

TEST(ObsTracer, ChromeTraceIsValidJson)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.span("detector.round", "detector", 3, 1.5, 2.5, 4,
                {{"guesses", "2"}, {"weird\"key", "line\nbreak"}});
    tracer.instant("marker", "test", 0, 0.25);
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    std::string text = os.str();
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"round\":4"), std::string::npos);
}

TEST(ObsTracer, JsonlOneValidObjectPerLine)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.span("a", "t", 0, 0.0, 1.0);
    tracer.span("b", "t", 1, 2.0, 3.0);
    std::ostringstream os;
    tracer.writeJsonl(os);
    std::istringstream lines(os.str());
    std::string line;
    size_t count = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(JsonValidator(line).valid()) << line;
        ++count;
    }
    EXPECT_EQ(count, 2u);
}

TEST(ObsLog, LevelGatingAndPluggableSink)
{
    std::vector<std::pair<obs::LogLevel, std::string>> seen;
    obs::setLogSink([&seen](obs::LogLevel level, std::string_view msg) {
        seen.emplace_back(level, std::string(msg));
    });
    obs::setLogLevel(obs::LogLevel::Info);

    BOLT_LOG_ERROR("e " << 1);
    BOLT_LOG_INFO("i " << 2);
    BOLT_LOG_DEBUG("d " << 3); // above threshold: dropped

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, obs::LogLevel::Error);
    EXPECT_EQ(seen[0].second, "e 1");
    EXPECT_EQ(seen[1].second, "i 2");

    // Restore defaults for other tests/processes.
    obs::setLogSink(nullptr);
    obs::setLogLevel(obs::LogLevel::Warn);
}

TEST(ObsLog, ParseLevelNames)
{
    EXPECT_EQ(parseFlags({"--log-level", "debug"}), "");
    EXPECT_EQ(obs::logLevel(), obs::LogLevel::Debug);
    EXPECT_EQ(parseFlags({"--log-level", "error"}), "");
    EXPECT_EQ(obs::logLevel(), obs::LogLevel::Error);
    std::string err = parseFlags({"--log-level", "verbose"});
    EXPECT_NE(err.find("flag '--log-level' expects one of error, warn, "
                       "info, debug, got 'verbose'"),
              std::string::npos)
        << err;
    EXPECT_EQ(obs::logLevel(), obs::LogLevel::Error); // untouched on failure
    obs::setLogLevel(obs::LogLevel::Warn);
}

TEST(ObsReport, RunReportJsonIsValidAndOrdered)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::MetricId::kDetectorRounds, 7);
    reg.observe(obs::MetricId::kDetectorIterationsToConvergence, 2.0);

    obs::RunReport report("experiment");
    report.set("servers", static_cast<uint64_t>(8));
    report.set("policy", "least-loaded");
    report.set("obfuscation", 0.25);
    report.set("quasar", false);
    report.setWallSeconds(1.5);
    report.setSimSeconds(600.0);

    std::ostringstream os;
    report.writeJson(os, reg.snapshot());
    std::string text = os.str();
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"bolt_run_report\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"command\": \"experiment\""),
              std::string::npos);
    EXPECT_NE(text.find("\"detector.rounds\": 7"), std::string::npos);
    EXPECT_NE(text.find("\"wall_seconds\": 1.5"), std::string::npos);
    EXPECT_NE(text.find("\"sim_seconds\": 600"), std::string::npos);
    // Insertion order of config entries is preserved.
    EXPECT_LT(text.find("\"servers\""), text.find("\"policy\""));
    EXPECT_LT(text.find("\"policy\""), text.find("\"obfuscation\""));
}

TEST(ObsReport, SnapshotJsonSkipsEmptyHistograms)
{
    obs::MetricsRegistry reg;
    reg.setEnabled(true);
    reg.add(obs::MetricId::kSchedPicks, 3);
    std::ostringstream os;
    obs::writeSnapshotJson(os, reg.snapshot());
    std::string text = os.str();
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    EXPECT_NE(text.find("\"sched.picks\": 3"), std::string::npos);
    // No samples were observed: histogram object must not appear.
    EXPECT_EQ(text.find("detector.iterations_to_convergence"),
              std::string::npos);
}

TEST(ObsReport, ObsFlagsJoinOneParseAndRejectBadLevel)
{
    // Unknown log level -> parse failure naming the flag.
    EXPECT_NE(parseFlags({"--log-level", "shout"}).find("'--log-level'"),
              std::string::npos);
    // Valid flags take effect; other flags pass through untouched, or
    // are unknown when nothing takes them.
    std::vector<std::string> rest;
    EXPECT_EQ(parseFlags({"--servers", "8", "--log-level", "debug",
                          "--victims", "20"},
                         &rest),
              "");
    EXPECT_EQ(rest, (std::vector<std::string>{"--servers", "8", "--victims",
                                              "20"}));
    EXPECT_EQ(obs::logLevel(), obs::LogLevel::Debug);
    obs::setLogLevel(obs::LogLevel::Warn);
    EXPECT_NE(parseFlags({"--servers", "8"}).find("unknown flag '--servers'"),
              std::string::npos);
}

TEST(ObsReport, TelemetryWindowRejectsNonFiniteAndMalformed)
{
    for (const char* bad : {"inf", "1e999", "nan", "0", "-1", "2x", ""}) {
        std::string err = parseFlags({"--telemetry-window", bad});
        EXPECT_NE(err.find("flag '--telemetry-window' expects a positive "
                           "number of sim seconds, got '" +
                           std::string(bad) + "'"),
                  std::string::npos)
            << err;
    }
    EXPECT_NE(parseFlags({"--telemetry-window"}).find("requires a value"),
              std::string::npos);
}

} // namespace
