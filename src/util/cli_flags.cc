#include "cli_flags.h"

#include <cstring>

#include "util/parse.h"

namespace bolt {
namespace util {

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
    line += " --metrics-out --trace-out --telemetry-out --telemetry-window "
            "--log-level\n";
    return line;
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

} // namespace util
} // namespace bolt
