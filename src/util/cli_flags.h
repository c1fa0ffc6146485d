#ifndef BOLT_UTIL_CLI_FLAGS_H
#define BOLT_UTIL_CLI_FLAGS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bolt {
namespace util {

/** Value type a CLI flag accepts (and is validated against at parse). */
enum class FlagKind {
    Flag,   ///< Boolean presence flag; takes no value.
    String, ///< Free-form value; validated by the subcommand.
    Int,    ///< Signed integer, full-token match, range-checked.
};

/**
 * One accepted flag: name (without the leading "--"), value kind, and
 * an inclusive range for the Int kind.
 *
 * The range bounds are doubles; integer flags in Bolt are all far
 * below 2^53, where a double holds integers exactly.
 */
struct CliFlagSpec
{
    const char* name;
    FlagKind kind = FlagKind::String;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Strict typed CLI flag parser of bolt_cli's commands and the bench
 * drivers. Stage values (seeds, doubles) are the scenario compiler's
 * to parse, so the kinds stop at Int.
 *
 * Strictness contract — every violation is a parse error with a
 * diagnostic that names the offending token and lists the valid flags,
 * so a typo'd flag or a mangled value can never silently run a default
 * configuration:
 *
 *  - unknown flags and stray positional tokens are rejected;
 *  - a value-taking flag without a value is rejected;
 *  - numeric values must consume the *entire* token ("10x", "1e3garbage"
 *    and "" are rejected, unlike the permissive std::stol family);
 *  - numeric values must fall inside the spec's inclusive [min, max].
 *
 * Validation happens at parse time: after parse() returns true, the
 * typed getters cannot fail.
 */
class CliArgs
{
  public:
    /**
     * Parse argv[first..argc) against `spec` plus `common` (flags every
     * subcommand shares). On failure returns false and sets *error to a
     * complete multi-line diagnostic (offending token + valid flags).
     *
     * With `passthrough`, tokens outside the spec are not errors: each
     * unknown `--key` and the token after it (its value), and any stray
     * token, are appended there in order for a later validator (the
     * scenario compiler, for bolt_cli's stage subcommands).
     */
    bool parse(int argc, char** argv, int first,
               const std::vector<CliFlagSpec>& spec,
               const std::vector<CliFlagSpec>& common, std::string* error,
               std::vector<std::string>* passthrough = nullptr);

    bool has(const std::string& name) const
    {
        return raw_.count(name) != 0;
    }
    std::string get(const std::string& name,
                    const std::string& fallback) const;
    /** Int flags; parse() already range-checked the value. */
    long long getInt(const std::string& name, long long fallback) const;

    /** "valid flags: --a --b ..." line used in parse diagnostics. */
    static std::string validFlagsLine(
        const std::vector<CliFlagSpec>& spec,
        const std::vector<CliFlagSpec>& common);

  private:
    std::map<std::string, std::string> raw_;
    std::map<std::string, long long> ints_;
};

/**
 * The flags every program takes besides its own:
 *
 *   --threads N             pool width, 0 = hardware; never changes results
 *   --metrics-out FILE      enable metrics; write a RunReport JSON there
 *   --trace-out FILE        enable tracing; write the trace there
 *   --telemetry-out FILE    enable windowed telemetry; write JSONL there
 *   --telemetry-window SEC  telemetry window in sim seconds (finite, > 0)
 *   --log-level LEVEL       one of obs::kLogLevelKeys (default warn)
 */
extern const std::vector<CliFlagSpec> kCommonFlags;

/**
 * The flag prologue of every program: one parse of argv[first..)
 * against `spec` plus kCommonFlags into *args (a local one when null;
 * `passthrough` as in CliArgs::parse), after which the common flags
 * take effect. The global pool is sized from --threads; each --*-out
 * flag enables its recorder and sets its output path, and
 * obs::writeOutputsAtExit covers programs that write no report of
 * their own; the telemetry window and the log level are set.
 *
 * @return "" on success. Otherwise the diagnostic, which starts with
 * the program's name and ends with the valid-flags line; no flag has
 * taken effect, and the caller prints it and exits 2.
 */
std::string parseProgramFlags(int argc, char** argv,
                              const std::vector<CliFlagSpec>& spec = {},
                              CliArgs* args = nullptr, int first = 1,
                              std::vector<std::string>* passthrough = nullptr);

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_CLI_FLAGS_H
