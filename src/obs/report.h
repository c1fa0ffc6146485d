#ifndef BOLT_OBS_REPORT_H
#define BOLT_OBS_REPORT_H

#include "metrics.h"
#include "monitor.h"

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bolt {
namespace obs {

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** A double as a JSON number: 17 significant digits, NaN as null. */
std::string jsonNumber(double v);

/**
 * Write a metrics Snapshot as a JSON object:
 *   {"counters":{name:value,...},
 *    "gauges":{name:value,...},
 *    "histograms":{name:{"count","sum","mean","lo","hi","buckets"}},
 *    "shards":N,
 *    "per_shard":{name:[v0,v1,...],...}}
 * Zero-count histograms and never-set gauges are skipped so small runs
 * stay readable; counters are always written (zeros included) so
 * consumers can rely on the full catalog being present.
 */
void writeSnapshotJson(std::ostream& os, const Snapshot& snap,
                       int indent = 0);

/**
 * End-of-run summary for one CLI/bench invocation: the command, its
 * configuration, wall/sim timing, and a metrics snapshot, serialized
 * as one JSON document (--metrics-out). Insertion order of config
 * entries is preserved so reports diff cleanly.
 */
class RunReport
{
  public:
    explicit RunReport(std::string command);

    /** Add one config entry (string / integer / double / bool). */
    void set(std::string key, std::string value);
    void set(std::string key, const char* value);
    void set(std::string key, int64_t value);
    void set(std::string key, uint64_t value);
    void set(std::string key, int value);
    void set(std::string key, double value);
    void set(std::string key, bool value);

    void setWallSeconds(double s)
    {
        wallSeconds_ = s;
    }
    void setSimSeconds(double s)
    {
        simSeconds_ = s;
    }

    /**
     * Serialize: {"bolt_run_report":1,"command",...,"config":{...},
     * "wall_seconds","sim_seconds","metrics":{...}}. The metrics
     * object is the registry snapshot passed in.
     */
    void writeJson(std::ostream& os, const Snapshot& snap) const;

  private:
    enum class ValueType { String, Number, Bool };
    std::string command_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<ValueType> types_;
    double wallSeconds_ = -1.0;
    double simSeconds_ = -1.0;
};

/**
 * Output paths configured by --metrics-out / --trace-out /
 * --telemetry-out (empty = don't write). The trace format is chosen
 * by extension: ".jsonl" writes flat JSONL, anything else Chrome
 * trace_event JSON. The telemetry output is always JSONL (windowed
 * series points followed by SLO alert events — the input format of
 * `bolt_cli report`).
 */
void setMetricsOutPath(std::string path);
void setTraceOutPath(std::string path);
void setTelemetryOutPath(std::string path);
const std::string& telemetryOutPath();

/**
 * Write the configured outputs for one finished run: the RunReport
 * (with the global registry's snapshot embedded) to the metrics path
 * and the global tracer's events to the trace path. Missing paths are
 * skipped; write failures log a BOLT_LOG_ERROR and are otherwise
 * ignored (observability never fails a run).
 */
void writeConfiguredOutputs(const RunReport& report);

/**
 * Register, once, an atexit writer for programs that never call
 * writeConfiguredOutputs themselves: it writes a RunReport named
 * `program` with the wall time since this call. It stands down once
 * writeConfiguredOutputs or skipOutputsAtExit has run.
 */
void writeOutputsAtExit(std::string program);

/**
 * Stand the atexit writer down without writing: for a program that
 * writes its report only when a run starts, so that an exit before one
 * leaves no output file.
 */
void skipOutputsAtExit();

/** One series point of a telemetry dump, as read back. */
struct TelemetryPointRecord
{
    std::string series;
    std::string label; ///< Empty for unkeyed series.
    int64_t window = 0;
    uint64_t count = 0;
    double mean = 0.0;
    double p99 = 0.0;
    bool sample = false; ///< The line carried sum/mean/percentiles.
};

/** A --telemetry-out dump read back: header, points, alert events. */
struct TelemetryDump
{
    double windowSec = 1.0;
    uint64_t seriesDropped = 0;
    std::vector<TelemetryPointRecord> points; ///< In file order.
    std::vector<AlertEvent> alerts;           ///< In file order.
};

/**
 * Read a --telemetry-out dump: the writeTelemetryJsonl header and
 * points followed by writeAlertsJsonl events, so one module owns the
 * format in both directions. Strict: every line must be one flat JSON
 * object of the writers' shape, and every number field a full token
 * ("7x", "zz" and "abc" are errors, never 0; `null`, the writers' NaN
 * spelling, reads as absent). On failure returns false with
 * *err = "<file>:<line>: <message>"; `bolt_cli report` exits 2.
 */
bool readTelemetryJsonl(std::istream& in, const std::string& file,
                        TelemetryDump* out, std::string* err);

} // namespace obs
} // namespace bolt

#endif // BOLT_OBS_REPORT_H
