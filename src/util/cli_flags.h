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
 * Strict typed CLI flag parser shared by bolt_cli's commands and
 * perf_recommender. Stage values (seeds, doubles) are the scenario
 * compiler's to parse, so the kinds stop at Int.
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

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_CLI_FLAGS_H
