/**
 * @file
 * Tests for the sim-time telemetry pipeline: the windowed
 * TimeSeriesRecorder, the mergeable QuantileSketch, the SloMonitor and
 * the strict dump reader (obs/timeseries.h, obs/monitor.h,
 * obs/report.h).
 *
 * The load-bearing properties: window assignment is exact at
 * boundaries, shard merging is a sum of integers so the JSONL export
 * is byte-identical at any thread count, the cardinality cap conserves
 * counts instead of silently truncating, and the alert timeline is a
 * deterministic pure function of the recorded data.
 */
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace obs = bolt::obs;

using obs::QuantileSketch;
using obs::SeriesId;
using obs::SeriesPoint;
using obs::SloMonitor;
using obs::SloRule;
using obs::TelemetryConfig;
using obs::TimeSeriesRecorder;

// --------------------------------------------------------------- sketch

TEST(QuantileSketch, MergeIsAssociativeAndCommutative)
{
    QuantileSketch a, b, c;
    for (int i = 0; i < 40; ++i)
        a.observe(0.1 * i);
    for (int i = 0; i < 25; ++i)
        b.observe(3.0 + 0.5 * i);
    for (int i = 0; i < 13; ++i)
        c.observe(5000.0 + i); // Overflow bucket territory.
    c.observe(-1.0);           // Underflow.
    c.observe(std::nan(""));   // NaN routes to underflow, not UB.

    QuantileSketch ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);
    QuantileSketch a_bc = b;
    a_bc.merge(c);
    a_bc.merge(a);

    EXPECT_EQ(ab_c.count, a_bc.count);
    EXPECT_EQ(ab_c.buckets, a_bc.buckets);
    EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
}

TEST(QuantileSketch, PercentileSentinelsMatchHistogramContract)
{
    QuantileSketch empty;
    EXPECT_TRUE(std::isnan(empty.percentile(50.0)));

    QuantileSketch one;
    one.observe(3.0);
    size_t b = QuantileSketch::bucketFor(3.0);
    // p<=0 reports the low edge of the first occupied bucket, p>=100
    // the high edge of the last — same sentinels as
    // HistogramSnapshot::percentile.
    EXPECT_DOUBLE_EQ(one.percentile(0.0), QuantileSketch::bucketLo(b));
    EXPECT_DOUBLE_EQ(one.percentile(100.0), QuantileSketch::bucketHi(b));
    double p50 = one.percentile(50.0);
    EXPECT_GE(p50, QuantileSketch::bucketLo(b));
    EXPECT_LE(p50, QuantileSketch::bucketHi(b));
}

TEST(QuantileSketch, BucketEdgesCoverTheLine)
{
    // Every value lands in a bucket whose [lo, hi) brackets it (modulo
    // the underflow/overflow catch-alls).
    for (double v : {0.07, 0.51, 1.0, 2.49, 3.0, 100.7, 4095.0}) {
        size_t b = QuantileSketch::bucketFor(v);
        EXPECT_GE(v, QuantileSketch::bucketLo(b)) << v;
        EXPECT_LT(v, QuantileSketch::bucketHi(b)) << v;
    }
    // Below range and at/above the top land in the catch-alls.
    EXPECT_EQ(QuantileSketch::bucketFor(-5.0), 0u);
    EXPECT_EQ(QuantileSketch::bucketFor(1 << 13),
              QuantileSketch::kBuckets - 1);
}

// ------------------------------------------------------------- recorder

TEST(Telemetry, DisabledRecorderIsInert)
{
    TimeSeriesRecorder rec;
    ASSERT_FALSE(rec.enabled());
    rec.count(SeriesId::kSchedMigrations, 1.0);
    rec.sample(SeriesId::kServeQueueDepth, 1.0, 7.0);
    EXPECT_TRUE(rec.snapshot().points.empty());
}

TEST(Telemetry, WindowBoundaryAssignmentIsExact)
{
    TelemetryConfig cfg;
    cfg.windowSec = 0.5;
    TimeSeriesRecorder rec(cfg);
    rec.setEnabled(true);

    rec.sample(SeriesId::kServeQueueDepth, 0.0, 1.0);    // window 0
    rec.sample(SeriesId::kServeQueueDepth, 0.4999, 1.0); // window 0
    rec.sample(SeriesId::kServeQueueDepth, 0.5, 1.0);    // window 1
    rec.sample(SeriesId::kServeQueueDepth, 0.9999, 1.0); // window 1
    rec.sample(SeriesId::kServeQueueDepth, 1.0, 1.0);    // window 2

    SeriesPoint p;
    ASSERT_TRUE(rec.windowPoint(SeriesId::kServeQueueDepth, {}, 0, &p));
    EXPECT_EQ(p.count, 2u);
    ASSERT_TRUE(rec.windowPoint(SeriesId::kServeQueueDepth, {}, 1, &p));
    EXPECT_EQ(p.count, 2u);
    ASSERT_TRUE(rec.windowPoint(SeriesId::kServeQueueDepth, {}, 2, &p));
    EXPECT_EQ(p.count, 1u);
    EXPECT_FALSE(rec.windowPoint(SeriesId::kServeQueueDepth, {}, 3, &p));
}

namespace {

/**
 * Record a fixed multiset of telemetry records partitioned round-robin
 * across `threads` worker threads, then return the JSONL export.
 */
std::string
exportWithThreads(size_t threads)
{
    TelemetryConfig cfg;
    cfg.windowSec = 0.25;
    TimeSeriesRecorder rec(cfg);
    rec.setEnabled(true);

    struct Record
    {
        SeriesId id;
        const char* label;
        double t;
        double value;
        bool isSample;
    };
    std::vector<Record> records;
    for (int i = 0; i < 96; ++i) {
        double t = 0.05 * i;
        records.push_back({SeriesId::kServeLatencyMs,
                           i % 3 ? "completed" : "shed", t,
                           0.25 + (i % 7) * 1.75, true});
        records.push_back({SeriesId::kServeTenantRequests,
                           i % 2 ? "c0" : "c1", t, 1.0, false});
        if (i % 5 == 0)
            records.push_back(
                {SeriesId::kServeQueueDepth, "", t, double(i % 11), true});
    }

    std::vector<std::thread> pool;
    for (size_t w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
            for (size_t i = w; i < records.size(); i += threads) {
                const Record& r = records[i];
                if (r.isSample)
                    rec.sample(r.id, r.label, r.t, r.value);
                else
                    rec.count(r.id, r.label, r.t, 1);
            }
        });
    }
    for (std::thread& th : pool)
        th.join();

    std::ostringstream os;
    obs::writeTelemetryJsonl(os, rec.snapshot());
    return os.str();
}

} // namespace

TEST(Telemetry, JsonlExportIsThreadCountInvariant)
{
    std::string one = exportWithThreads(1);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, exportWithThreads(2));
    EXPECT_EQ(one, exportWithThreads(8));
}

TEST(Telemetry, ColoSeriesExportIsThreadCountInvariant)
{
    // The arms-race series are labeled by attacker / policy name and
    // emitted once per tournament cell; the export must not depend on
    // which thread recorded which cell.
    auto record = [](size_t threads) {
        TelemetryConfig cfg;
        cfg.windowSec = 1.0;
        TimeSeriesRecorder rec(cfg);
        rec.setEnabled(true);

        static const char* kAttackers[] = {"replication", "affinity",
                                           "churn"};
        static const char* kPolicies[] = {"least-loaded", "mab",
                                          "secure-opt"};
        std::vector<std::thread> pool;
        for (size_t w = 0; w < threads; ++w) {
            pool.emplace_back([&, w] {
                for (size_t cell = w; cell < 45; cell += threads) {
                    rec.count(SeriesId::kColoAttackerLaunches,
                              kAttackers[cell % 3], double(cell),
                              64 + cell);
                    rec.count(SeriesId::kColoCoResEvents,
                              kPolicies[cell % 3], double(cell),
                              1 + cell % 4);
                }
            });
        }
        for (std::thread& th : pool)
            th.join();

        std::ostringstream os;
        obs::writeTelemetryJsonl(os, rec.snapshot());
        return os.str();
    };

    std::string one = record(1);
    EXPECT_FALSE(one.empty());
    EXPECT_NE(one.find("colo.attacker_launches"), std::string::npos);
    EXPECT_NE(one.find("colo.coresidency_events"), std::string::npos);
    EXPECT_EQ(one, record(4));
    EXPECT_EQ(one, record(8));
}

TEST(Telemetry, CardinalityCapRoutesOverflowAndConservesCounts)
{
    TimeSeriesRecorder rec;
    rec.setEnabled(true);

    // 6 tenants past the cap, 3 events each: the first cap tenants get
    // their own slot, the other 6 tenants' 18 records route to the
    // overflow label.
    constexpr size_t kCap = obs::kTelemetryCardinalityCap;
    for (size_t tenant = 0; tenant < kCap + 6; ++tenant)
        for (int e = 0; e < 3; ++e)
            rec.count(SeriesId::kServeTenantRequests,
                      obs::indexedLabel('c', static_cast<int64_t>(tenant)),
                      0.1, 1);

    EXPECT_EQ(rec.seriesDropped(), 18u);
    auto snap = rec.snapshot();
    EXPECT_EQ(snap.seriesDropped, 18u);

    uint64_t total = 0, overflow = 0;
    size_t labels = 0;
    for (const SeriesPoint& p : snap.points) {
        if (p.id != SeriesId::kServeTenantRequests)
            continue;
        ++labels;
        total += p.count;
        if (p.label == obs::kOverflowLabel)
            overflow = p.count;
    }
    EXPECT_EQ(labels, kCap + 1); // cap + the overflow slot.
    EXPECT_EQ(total, 3 * (kCap + 6)); // Conserved: nothing truncated.
    EXPECT_EQ(overflow, 18u);
}

// -------------------------------------------------------------- monitor

namespace {

/** One-window mean: record `n` samples averaging `v` into window w. */
void
fillWindow(TimeSeriesRecorder& rec, SeriesId id, const char* label,
           int64_t w, double v, int n = 2)
{
    for (int i = 0; i < n; ++i)
        rec.sample(id, label, (double(w) + 0.5) * rec.config().windowSec,
                   v);
}

} // namespace

TEST(SloMonitorRules, ThresholdSustainsThenResolves)
{
    TimeSeriesRecorder rec;
    rec.setEnabled(true);
    SloMonitor mon(rec);

    SloRule rule;
    rule.name = "hot";
    rule.kind = obs::RuleKind::Threshold;
    rule.series = SeriesId::kDosVictimP99Ms;
    rule.label = "naive";
    rule.agg = obs::RuleAgg::Mean;
    rule.op = obs::RuleOp::Above;
    rule.value = 10.0;
    rule.sustain = 2;
    mon.setRules({rule});

    fillWindow(rec, rule.series, "naive", 0, 20.0);
    fillWindow(rec, rule.series, "naive", 1, 30.0);
    fillWindow(rec, rule.series, "naive", 2, 5.0);
    mon.advanceTo(3.0); // Evaluates windows 0, 1, 2.

    ASSERT_EQ(mon.events().size(), 2u);
    const auto& fired = mon.events()[0];
    EXPECT_EQ(fired.rule, "hot");
    EXPECT_TRUE(fired.firing);
    EXPECT_EQ(fired.window, 1); // sustain=2: not on the first breach.
    EXPECT_DOUBLE_EQ(fired.t, 1.0);
    EXPECT_DOUBLE_EQ(fired.value, 30.0);
    const auto& resolved = mon.events()[1];
    EXPECT_FALSE(resolved.firing);
    EXPECT_EQ(resolved.window, 2);
    EXPECT_DOUBLE_EQ(resolved.value, 5.0);
    EXPECT_TRUE(mon.everFired("hot"));
    EXPECT_FALSE(mon.firing("hot"));
    EXPECT_EQ(mon.firingCount(), 0u);
}

TEST(SloMonitorRules, BurnRateNeedsBothWindowsBurning)
{
    TimeSeriesRecorder rec;
    rec.setEnabled(true);
    SloMonitor mon(rec);

    SloRule rule;
    rule.name = "burn";
    rule.kind = obs::RuleKind::BurnRate;
    rule.series = SeriesId::kFaultEvents; // "bad" numerator.
    rule.label = "dropout";
    rule.totalSeries = SeriesId::kServeTenantRequests;
    rule.totalLabel = "c0";
    rule.budget = 0.1; // 10% of requests may drop.
    rule.value = 1.0;  // Fire when burning faster than budget.
    rule.shortWindows = 1;
    rule.longWindows = 3;
    mon.setRules({rule});

    // 100 requests per window throughout; drops only in windows 2-3.
    for (int64_t w = 0; w < 6; ++w)
        rec.count(SeriesId::kServeTenantRequests, "c0",
                  double(w) + 0.5, 100);
    rec.count(SeriesId::kFaultEvents, "dropout", 2.5, 50);
    rec.count(SeriesId::kFaultEvents, "dropout", 3.5, 50);
    mon.advanceTo(6.0);

    // w0-w1: no drops. w2: short burn 50/100/0.1 = 5, long burn
    // 50/300/0.1 = 1.67 -> fires. w4: short burn 0 -> resolves even
    // though the long window still carries the spike.
    ASSERT_EQ(mon.events().size(), 2u);
    EXPECT_TRUE(mon.events()[0].firing);
    EXPECT_EQ(mon.events()[0].window, 2);
    EXPECT_DOUBLE_EQ(mon.events()[0].value, 5.0);
    EXPECT_FALSE(mon.events()[1].firing);
    EXPECT_EQ(mon.events()[1].window, 4);
}

TEST(SloMonitorRules, AbsenceFiresAfterGapOnceSeen)
{
    TimeSeriesRecorder rec;
    rec.setEnabled(true);
    SloMonitor mon(rec);

    SloRule rule;
    rule.name = "silent";
    rule.kind = obs::RuleKind::Absence;
    rule.series = SeriesId::kSchedMigrations;
    rule.windows = 2;
    mon.setRules({rule});

    // Nothing seen yet: empty windows do not fire.
    mon.advanceTo(2.0);
    EXPECT_TRUE(mon.events().empty());

    rec.count(SeriesId::kSchedMigrations, 2.5); // window 2
    rec.count(SeriesId::kSchedMigrations, 6.5); // window 6
    mon.advanceTo(7.0); // Evaluates through window 6 inclusive.

    // Seen at w2; gap w3, w4 -> fires at w4; data at w6 resolves.
    ASSERT_EQ(mon.events().size(), 2u);
    EXPECT_TRUE(mon.events()[0].firing);
    EXPECT_EQ(mon.events()[0].window, 4);
    EXPECT_FALSE(mon.events()[1].firing);
    EXPECT_EQ(mon.events()[1].window, 6);
}

TEST(SloMonitorRules, RewindOpensNewEpochAndKeepsFiringState)
{
    TimeSeriesRecorder rec;
    rec.setEnabled(true);
    SloMonitor mon(rec);

    SloRule rule;
    rule.name = "hot";
    rule.kind = obs::RuleKind::Threshold;
    rule.series = SeriesId::kDosVictimP99Ms;
    rule.label = "naive";
    rule.value = 10.0;
    mon.setRules({rule});

    fillWindow(rec, rule.series, "naive", 0, 20.0);
    fillWindow(rec, rule.series, "naive", 1, 20.0);
    mon.advanceTo(2.0);
    ASSERT_EQ(mon.events().size(), 1u);
    EXPECT_EQ(mon.events()[0].epoch, 1u);
    EXPECT_TRUE(mon.firing("hot"));

    // Sim time rewinds (second timeline pass): new epoch, the firing
    // state persists until evidence resolves it, and re-walking the
    // same windows emits no duplicate transitions.
    mon.advanceTo(0.1);
    mon.advanceTo(2.0);
    EXPECT_EQ(mon.events().size(), 1u);
    EXPECT_TRUE(mon.firing("hot"));

    // Window 2 is empty -> resolves, stamped with the new epoch.
    mon.advanceTo(3.0);
    ASSERT_EQ(mon.events().size(), 2u);
    EXPECT_FALSE(mon.events()[1].firing);
    EXPECT_EQ(mon.events()[1].epoch, 2u);
}

TEST(SloMonitorRules, AlertsJsonlIsStable)
{
    std::vector<obs::AlertEvent> events(1);
    events[0].rule = "hot";
    events[0].firing = true;
    events[0].window = 3;
    events[0].t = 3.0;
    events[0].value = 42.5;
    events[0].epoch = 2;
    std::ostringstream os;
    obs::writeAlertsJsonl(os, events);
    EXPECT_EQ(os.str(), "{\"alert\":\"hot\",\"state\":\"firing\","
                        "\"window\":3,\"t\":3,\"value\":42.5,"
                        "\"epoch\":2}\n");
}

// ----------------------------------------------------------- dump reader

TEST(TelemetryDump, WriterOutputRoundTripsThroughReader)
{
    TelemetryConfig cfg;
    cfg.windowSec = 0.25;
    TimeSeriesRecorder rec(cfg);
    rec.setEnabled(true);
    rec.sample(SeriesId::kServeQueueDepth, 0.1, 3.0);
    rec.sample(SeriesId::kServeQueueDepth, 0.6, 5.0);
    rec.count(SeriesId::kServeTenantRequests, "c7", 0.3, 4);
    std::vector<obs::AlertEvent> alerts(2);
    alerts[0].rule = "hot";
    alerts[0].firing = true;
    alerts[0].window = 2;
    alerts[0].t = 0.5;
    alerts[0].value = 5.0;
    alerts[1].rule = "hot";
    alerts[1].window = 9;
    alerts[1].epoch = 3;

    std::stringstream dump;
    obs::TelemetrySnapshot snap = rec.snapshot();
    obs::writeTelemetryJsonl(dump, snap);
    obs::writeAlertsJsonl(dump, alerts);
    obs::TelemetryDump back;
    std::string err;
    ASSERT_TRUE(obs::readTelemetryJsonl(dump, "t.jsonl", &back, &err))
        << err;

    EXPECT_EQ(back.windowSec, 0.25);
    EXPECT_EQ(back.seriesDropped, 0u);
    ASSERT_EQ(back.points.size(), snap.points.size());
    for (size_t i = 0; i < snap.points.size(); ++i) {
        const obs::SeriesPoint& want = snap.points[i];
        const obs::TelemetryPointRecord& got = back.points[i];
        EXPECT_EQ(got.series, obs::seriesInfo(want.id).name);
        EXPECT_EQ(got.label, want.label);
        EXPECT_EQ(got.window, want.window);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.sample, obs::seriesInfo(want.id).kind ==
                                  obs::SeriesKind::Sample);
        if (got.sample) {
            EXPECT_EQ(got.mean, want.mean());
            EXPECT_EQ(got.p99, want.sketch.percentile(99.0));
        }
    }
    ASSERT_EQ(back.alerts.size(), 2u);
    EXPECT_EQ(back.alerts[0].rule, "hot");
    EXPECT_TRUE(back.alerts[0].firing);
    EXPECT_EQ(back.alerts[0].window, 2);
    EXPECT_EQ(back.alerts[0].t, 0.5);
    EXPECT_EQ(back.alerts[0].value, 5.0);
    EXPECT_FALSE(back.alerts[1].firing);
    EXPECT_EQ(back.alerts[1].window, 9);
    EXPECT_EQ(back.alerts[1].epoch, 3u);
}

TEST(TelemetryDump, MalformedNumbersFailWithFileAndLine)
{
    const std::string header =
        "{\"bolt_telemetry\":1,\"window_sec\":1,\"series_dropped\":0}\n";
    struct Case
    {
        std::string line;
        std::string error;
    };
    const Case kCases[] = {
        {"{\"series\":\"serve.queue_depth\",\"window\":zz,\"count\":7x,"
         "\"mean\":\"abc\"}",
         "d.jsonl:2: field 'window' value 'zz' is not a number"},
        {"{\"series\":\"serve.queue_depth\",\"window\":1,\"count\":7x}",
         "d.jsonl:2: field 'count' value '7x' is not a number"},
        {"{\"series\":\"serve.queue_depth\",\"window\":1,\"count\":7,"
         "\"mean\":\"abc\"}",
         "d.jsonl:2: field 'mean' value 'abc' is not a number"},
        {"{\"series\":\"serve.queue_depth\",\"count\":7}",
         "d.jsonl:2: missing field 'window'"},
        {"{\"alert\":\"hot\",\"state\":\"firing\",\"window\":1e3}",
         "d.jsonl:2: field 'window' value '1e3' is not a number"},
        {"{\"alert\":\"hot\",\"state\":\"burning\",\"window\":1}",
         "d.jsonl:2: alert state 'burning' is not firing or resolved"},
        {"{\"series\":\"x\",\"window\":1,\"count\":1",
         "d.jsonl:2: malformed telemetry line"},
        {"{\"other\":1}", "d.jsonl:2: unrecognized telemetry line"},
    };
    for (const Case& c : kCases) {
        std::istringstream in(header + c.line + "\n");
        obs::TelemetryDump dump;
        std::string err;
        EXPECT_FALSE(obs::readTelemetryJsonl(in, "d.jsonl", &dump, &err))
            << c.line;
        EXPECT_EQ(err, c.error);
    }
    std::istringstream not_telemetry("scenario: x\n");
    obs::TelemetryDump dump;
    std::string err;
    EXPECT_FALSE(
        obs::readTelemetryJsonl(not_telemetry, "d.jsonl", &dump, &err));
    EXPECT_EQ(err, "d.jsonl:1: not a bolt telemetry dump (missing "
                   "bolt_telemetry header)");
}
