#include "report.h"

#include "log.h"
#include "monitor.h"
#include "timeseries.h"
#include "trace.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace bolt {
namespace obs {

namespace {

std::string
indentStr(int indent)
{
    return std::string(static_cast<size_t>(indent), ' ');
}

/**
 * Full-token finite number parse. obs sits below util's parser, so the
 * telemetry dump reader has this one instead.
 */
template <typename T>
bool
parseNumber(std::string_view s, T* out)
{
    T v{};
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc{} || ptr != s.data() + s.size())
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

/** One field of a flat JSONL object; strings arrive unquoted. */
struct JsonField
{
    std::string key;
    std::string raw;
    bool quoted = false;
};

/**
 * Split one flat object the telemetry writers emit ({"k":v,"k":"s"},
 * no nesting, no escapes); false when the line has another shape.
 */
bool
splitFlatObject(std::string_view line, std::vector<JsonField>* out)
{
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
        return false;
    const size_t end = line.size() - 1;
    size_t i = 1;
    auto quoted = [&](std::string* text) {
        size_t close = line.find('"', i + 1);
        if (i >= end || line[i] != '"' || close >= end)
            return false;
        *text = std::string(line.substr(i + 1, close - i - 1));
        i = close + 1;
        return true;
    };
    while (i < end) {
        if (!out->empty() && line[i++] != ',')
            return false;
        JsonField f;
        if (!quoted(&f.key) || i >= end || line[i++] != ':')
            return false;
        if (i < end && line[i] == '"') {
            f.quoted = true;
            if (!quoted(&f.raw))
                return false;
        } else {
            size_t stop = std::min(line.find(',', i), end);
            f.raw = std::string(line.substr(i, stop - i));
            i = stop;
        }
        out->push_back(std::move(f));
    }
    return true;
}

} // namespace

std::string
jsonNumber(double v)
{
    if (!(v == v))
        return "null"; // NaN has no JSON spelling.
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeSnapshotJson(std::ostream& os, const Snapshot& snap, int indent)
{
    const std::string pad = indentStr(indent);
    const std::string pad1 = indentStr(indent + 2);
    const std::string pad2 = indentStr(indent + 4);

    os << "{\n" << pad1 << "\"counters\": {";
    for (size_t i = 0; i < snap.counters.size(); ++i) {
        const CounterSnapshot& c = snap.counters[i];
        os << (i ? "," : "") << "\n"
           << pad2 << "\"" << metricInfo(c.id).name << "\": " << c.value;
    }
    os << "\n" << pad1 << "},\n";

    os << pad1 << "\"gauges\": {";
    bool first = true;
    for (const GaugeSnapshot& g : snap.gauges) {
        if (!g.everSet)
            continue;
        os << (first ? "" : ",") << "\n"
           << pad2 << "\"" << metricInfo(g.id).name
           << "\": " << jsonNumber(g.value);
        first = false;
    }
    os << "\n" << pad1 << "},\n";

    os << pad1 << "\"histograms\": {";
    first = true;
    for (const HistogramSnapshot& h : snap.histograms) {
        if (h.count == 0)
            continue;
        const MetricInfo& info = metricInfo(h.id);
        os << (first ? "" : ",") << "\n"
           << pad2 << "\"" << info.name << "\": {\"count\": " << h.count
           << ", \"sum\": " << jsonNumber(h.sum)
           << ", \"mean\": " << jsonNumber(h.mean())
           << ", \"p50\": " << jsonNumber(h.percentile(50.0))
           << ", \"p95\": " << jsonNumber(h.percentile(95.0))
           << ", \"p99\": " << jsonNumber(h.percentile(99.0))
           << ", \"lo\": " << jsonNumber(info.lo)
           << ", \"hi\": " << jsonNumber(info.hi) << ", \"buckets\": [";
        for (size_t b = 0; b < h.buckets.size(); ++b)
            os << (b ? "," : "") << h.buckets[b];
        os << "]}";
        first = false;
    }
    os << "\n" << pad1 << "},\n";

    os << pad1 << "\"shards\": " << snap.shards << ",\n";

    os << pad1 << "\"per_shard\": {";
    first = true;
    for (const CounterSnapshot& c : snap.counters) {
        if (c.perShard.empty())
            continue;
        os << (first ? "" : ",") << "\n"
           << pad2 << "\"" << metricInfo(c.id).name << "\": [";
        for (size_t s = 0; s < c.perShard.size(); ++s)
            os << (s ? "," : "") << c.perShard[s];
        os << "]";
        first = false;
    }
    os << "\n" << pad1 << "}\n" << pad << "}";
}

RunReport::RunReport(std::string command) : command_(std::move(command))
{
}

void
RunReport::set(std::string key, std::string value)
{
    config_.emplace_back(std::move(key), std::move(value));
    types_.push_back(ValueType::String);
}

void
RunReport::set(std::string key, const char* value)
{
    set(std::move(key), std::string(value));
}

void
RunReport::set(std::string key, int64_t value)
{
    config_.emplace_back(std::move(key), std::to_string(value));
    types_.push_back(ValueType::Number);
}

void
RunReport::set(std::string key, uint64_t value)
{
    config_.emplace_back(std::move(key), std::to_string(value));
    types_.push_back(ValueType::Number);
}

void
RunReport::set(std::string key, int value)
{
    set(std::move(key), static_cast<int64_t>(value));
}

void
RunReport::set(std::string key, double value)
{
    config_.emplace_back(std::move(key), jsonNumber(value));
    types_.push_back(ValueType::Number);
}

void
RunReport::set(std::string key, bool value)
{
    config_.emplace_back(std::move(key), value ? "true" : "false");
    types_.push_back(ValueType::Bool);
}

void
RunReport::writeJson(std::ostream& os, const Snapshot& snap) const
{
    os << "{\n  \"bolt_run_report\": 1,\n  \"command\": \""
       << jsonEscape(command_) << "\",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(config_[i].first) << "\": ";
        if (types_[i] == ValueType::String)
            os << "\"" << jsonEscape(config_[i].second) << "\"";
        else
            os << config_[i].second;
    }
    os << "\n  },\n";
    if (wallSeconds_ >= 0.0)
        os << "  \"wall_seconds\": " << jsonNumber(wallSeconds_) << ",\n";
    if (simSeconds_ >= 0.0)
        os << "  \"sim_seconds\": " << jsonNumber(simSeconds_) << ",\n";
    os << "  \"metrics\": ";
    writeSnapshotJson(os, snap, 2);
    os << "\n}\n";
}

namespace {

std::string g_metrics_out;
std::string g_trace_out;
std::string g_telemetry_out;
bool g_outputs_written = false;
std::chrono::steady_clock::time_point g_start_time;
std::string g_program_name = "bolt";

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/**
 * Fallback writer for drivers that never call writeConfiguredOutputs
 * themselves: report the program name and process wall time.
 */
void
atexitWriter()
{
    if (g_outputs_written)
        return;
    RunReport report(g_program_name);
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - g_start_time)
                      .count();
    report.setWallSeconds(wall);
    writeConfiguredOutputs(report);
}

} // namespace

void
setMetricsOutPath(std::string path)
{
    g_metrics_out = std::move(path);
}

void
setTraceOutPath(std::string path)
{
    g_trace_out = std::move(path);
}

void
setTelemetryOutPath(std::string path)
{
    g_telemetry_out = std::move(path);
}

const std::string&
telemetryOutPath()
{
    return g_telemetry_out;
}

void
writeConfiguredOutputs(const RunReport& report)
{
    g_outputs_written = true;
    if (!g_metrics_out.empty()) {
        std::ofstream os(g_metrics_out);
        if (os) {
            report.writeJson(os, MetricsRegistry::global().snapshot());
        } else {
            BOLT_LOG_ERROR("cannot open metrics output file '"
                           << g_metrics_out << "'");
        }
    }
    if (!g_trace_out.empty()) {
        std::ofstream os(g_trace_out);
        if (os) {
            if (endsWith(g_trace_out, ".jsonl"))
                Tracer::global().writeJsonl(os);
            else
                Tracer::global().writeChromeTrace(os);
        } else {
            BOLT_LOG_ERROR("cannot open trace output file '" << g_trace_out
                                                             << "'");
        }
    }
    if (!g_telemetry_out.empty()) {
        std::ofstream os(g_telemetry_out);
        if (os) {
            writeTelemetryJsonl(os,
                                TimeSeriesRecorder::global().snapshot());
            writeAlertsJsonl(os, SloMonitor::global().events());
        } else {
            BOLT_LOG_ERROR("cannot open telemetry output file '"
                           << g_telemetry_out << "'");
        }
    }
}

void
writeOutputsAtExit(std::string program)
{
    g_program_name = std::move(program);
    g_start_time = std::chrono::steady_clock::now();
    static bool registered = false;
    if (!registered) {
        std::atexit(atexitWriter);
        registered = true;
    }
}

void
skipOutputsAtExit()
{
    g_outputs_written = true;
}

bool
readTelemetryJsonl(std::istream& in, const std::string& file,
                   TelemetryDump* out, std::string* err)
{
    int lineno = 0;
    std::vector<JsonField> fields;
    auto fail = [&](const std::string& what) {
        *err = file + ":" + std::to_string(lineno) + ": " + what;
        return false;
    };
    auto find = [&](const char* key) -> const JsonField* {
        for (const JsonField& f : fields)
            if (f.key == key)
                return &f;
        return nullptr;
    };
    auto missing = [&](const char* key) {
        return fail(std::string("missing field '") + key + "'");
    };
    auto text = [&](const char* key, std::string* v, bool required) {
        const JsonField* f = find(key);
        if (!f)
            return !required || missing(key);
        if (!f->quoted)
            return fail(std::string("field '") + key + "' is not a string");
        *v = f->raw;
        return true;
    };
    auto number = [&](const char* key, auto* v, bool required) {
        const JsonField* f = find(key);
        if (!f)
            return !required || missing(key);
        using T = std::remove_pointer_t<decltype(v)>;
        if (std::is_floating_point_v<T> && !f->quoted && f->raw == "null")
            return true;
        if (f->quoted || !parseNumber(f->raw, v))
            return fail(std::string("field '") + key + "' value '" +
                        f->raw + "' is not a number");
        return true;
    };

    std::string line;
    ++lineno;
    if (!std::getline(in, line) || !splitFlatObject(line, &fields) ||
        !find("bolt_telemetry"))
        return fail("not a bolt telemetry dump (missing bolt_telemetry "
                    "header)");
    if (!number("window_sec", &out->windowSec, false) ||
        !number("series_dropped", &out->seriesDropped, false))
        return false;
    if (!(out->windowSec > 0.0))
        return fail("window_sec must be positive");

    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        fields.clear();
        if (!splitFlatObject(line, &fields))
            return fail("malformed telemetry line");
        if (find("alert")) {
            AlertEvent a;
            std::string state;
            if (!text("alert", &a.rule, true) ||
                !text("state", &state, true) ||
                !number("window", &a.window, true) ||
                !number("t", &a.t, false) ||
                !number("value", &a.value, false) ||
                !number("epoch", &a.epoch, false))
                return false;
            if (state != "firing" && state != "resolved")
                return fail("alert state '" + state +
                            "' is not firing or resolved");
            a.firing = state == "firing";
            out->alerts.push_back(std::move(a));
        } else if (find("series")) {
            TelemetryPointRecord p;
            double t = 0.0, sum = 0.0, p50 = 0.0, p95 = 0.0;
            if (!text("series", &p.series, true) ||
                !text("label", &p.label, false) ||
                !number("window", &p.window, true) ||
                !number("t", &t, false) ||
                !number("count", &p.count, true) ||
                !number("sum", &sum, false) ||
                !number("mean", &p.mean, false) ||
                !number("p50", &p50, false) ||
                !number("p95", &p95, false) ||
                !number("p99", &p.p99, false))
                return false;
            p.sample = find("mean") != nullptr;
            out->points.push_back(std::move(p));
        } else {
            return fail("unrecognized telemetry line");
        }
    }
    return true;
}

} // namespace obs
} // namespace bolt
