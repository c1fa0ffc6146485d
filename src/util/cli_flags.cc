#include "cli_flags.h"

#include <cstring>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/enum_keys.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace bolt {
namespace util {

const std::vector<CliFlagSpec> kCommonFlags = {
    {"threads", FlagKind::Int, 0, kMaxThreadsFlag},
    {"metrics-out", FlagKind::String},
    {"trace-out", FlagKind::String},
    {"telemetry-out", FlagKind::String},
    {"telemetry-window", FlagKind::String},
    {"log-level", FlagKind::String},
};

namespace {

const CliFlagSpec*
findSpec(const std::string& name, const std::vector<CliFlagSpec>& spec,
         const std::vector<CliFlagSpec>& common)
{
    for (const auto& f : spec)
        if (name == f.name)
            return &f;
    for (const auto& f : common)
        if (name == f.name)
            return &f;
    return nullptr;
}

std::string
rangeText(const CliFlagSpec& f)
{
    return "[" + std::to_string(static_cast<long long>(f.min)) + ", " +
           std::to_string(static_cast<long long>(f.max)) + "]";
}

/**
 * Check the values of the common flags kCommonFlags leaves as strings,
 * then make every common flag take effect. @return "" or what is wrong.
 */
std::string
applyCommonFlags(const CliArgs& args, const std::string& program)
{
    double window = 0.0;
    std::string text = args.get("telemetry-window", "");
    if (args.has("telemetry-window") &&
        !(parseDouble(text, &window) && window > 0.0))
        return "flag '--telemetry-window' expects a positive number of "
               "sim seconds, got '" + text + "'";
    obs::LogLevel level{};
    text = args.get("log-level", "");
    if (args.has("log-level") &&
        !enumFromKey(obs::kLogLevelKeys, text, &level))
        return "flag '--log-level' expects one of " +
               enumKeyList(obs::kLogLevelKeys) + ", got '" + text + "'";

    ThreadPool::setGlobalThreads(
        static_cast<unsigned>(args.getInt("threads", 0)));
    if (args.has("log-level"))
        obs::setLogLevel(level);
    if (args.has("telemetry-window")) {
        obs::TelemetryConfig cfg = obs::TimeSeriesRecorder::global().config();
        cfg.windowSec = window;
        obs::TimeSeriesRecorder::global().configure(cfg);
    }
    if (args.has("metrics-out")) {
        obs::setMetricsOutPath(args.get("metrics-out", ""));
        obs::MetricsRegistry::global().setEnabled(true);
    }
    if (args.has("trace-out")) {
        obs::setTraceOutPath(args.get("trace-out", ""));
        obs::Tracer::global().setEnabled(true);
    }
    if (args.has("telemetry-out")) {
        obs::setTelemetryOutPath(args.get("telemetry-out", ""));
        obs::TimeSeriesRecorder::global().setEnabled(true);
    }
    if (args.has("metrics-out") || args.has("trace-out") ||
        args.has("telemetry-out"))
        obs::writeOutputsAtExit(program);
    return "";
}

} // namespace

std::string
CliArgs::validFlagsLine(const std::vector<CliFlagSpec>& spec,
                        const std::vector<CliFlagSpec>& common)
{
    std::string line = "valid flags:";
    for (const auto& f : spec)
        line += std::string(" --") + f.name;
    for (const auto& f : common)
        line += std::string(" --") + f.name;
    return line + "\n";
}

bool
CliArgs::parse(int argc, char** argv, int first,
               const std::vector<CliFlagSpec>& spec,
               const std::vector<CliFlagSpec>& common, std::string* error,
               std::vector<std::string>* passthrough)
{
    auto fail = [&](const std::string& what) {
        *error = what + "\n" + validFlagsLine(spec, common);
        return false;
    };

    for (int i = first; i < argc; ++i) {
        bool is_flag = std::strncmp(argv[i], "--", 2) == 0;
        const CliFlagSpec* f =
            is_flag ? findSpec(argv[i] + 2, spec, common) : nullptr;
        if (!f && passthrough) {
            passthrough->push_back(argv[i]);
            if (is_flag && i + 1 < argc)
                passthrough->push_back(argv[++i]);
            continue;
        }
        if (!is_flag)
            return fail("unexpected argument '" + std::string(argv[i]) +
                        "'");
        std::string name = argv[i] + 2;
        if (!f)
            return fail("unknown flag '--" + name + "'");

        if (f->kind == FlagKind::Flag) {
            raw_[name] = "";
            continue;
        }
        if (i + 1 >= argc)
            return fail("flag '--" + name + "' requires a value");
        std::string value = argv[++i];

        if (f->kind == FlagKind::Int) {
            long long v = 0;
            if (!parseInt(value, &v))
                return fail("flag '--" + name + "' expects an integer, "
                            "got '" + value + "'");
            if (static_cast<double>(v) < f->min ||
                static_cast<double>(v) > f->max)
                return fail("flag '--" + name + "' expects a value in " +
                            rangeText(*f) + ", got '" + value + "'");
            ints_[name] = v;
        }
        raw_[name] = value;
    }
    return true;
}

std::string
CliArgs::get(const std::string& name, const std::string& fallback) const
{
    auto it = raw_.find(name);
    return it == raw_.end() ? fallback : it->second;
}

long long
CliArgs::getInt(const std::string& name, long long fallback) const
{
    auto it = ints_.find(name);
    return it == ints_.end() ? fallback : it->second;
}

std::string
parseProgramFlags(int argc, char** argv,
                  const std::vector<CliFlagSpec>& spec, CliArgs* args,
                  int first, std::vector<std::string>* passthrough)
{
    std::string program = argc > 0 ? argv[0] : "bolt";
    program.erase(0, program.rfind('/') + 1);
    CliArgs local;
    if (!args)
        args = &local;
    std::string err;
    if (!args->parse(argc, argv, first, spec, kCommonFlags, &err,
                     passthrough))
        return program + ": " + err;
    err = applyCommonFlags(*args, program);
    if (!err.empty())
        return program + ": " + err + "\n" +
               CliArgs::validFlagsLine(spec, kCommonFlags);
    return "";
}

} // namespace util
} // namespace bolt
