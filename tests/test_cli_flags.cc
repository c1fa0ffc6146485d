/** Regression tests for the strict typed CLI flag parser
 *  (src/util/cli_flags.*) and the full-token number parser under it
 *  (src/util/parse.*): trailing garbage, range checks, unknown
 *  flags — every malformed input must fail loudly with the valid
 *  flags listed, never fall back to a default. A seeded fuzz test
 *  drives the parser with random argv over bolt_cli's own specs. */
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "scenario/commands.h"
#include "util/cli_flags.h"
#include "util/digest.h"
#include "util/parse.h"

using namespace bolt;
using util::CliArgs;
using util::CliFlagSpec;
using util::FlagKind;

namespace {

const std::vector<CliFlagSpec> kSpec = {
    {"requests", FlagKind::Int, 1, 1000000},
    {"mode", FlagKind::String},
    {"closed-loop", FlagKind::Flag},
};
const std::vector<CliFlagSpec> kCommon = {
    {"threads", FlagKind::Int, 0, 512},
};

/** Parse a token list; returns (ok, error). */
std::pair<bool, std::string>
tryParse(std::vector<std::string> tokens)
{
    std::vector<char*> argv = {const_cast<char*>("prog"),
                               const_cast<char*>("cmd")};
    for (auto& t : tokens)
        argv.push_back(t.data());
    CliArgs args;
    std::string err;
    bool ok = args.parse(static_cast<int>(argv.size()), argv.data(), 2,
                         kSpec, kCommon, &err);
    return {ok, err};
}

TEST(CliFlags, AcceptsWellFormedFlagsWithTypedValues)
{
    std::vector<std::string> tokens = {"--requests",    "500",
                                       "--mode",        "fast",
                                       "--closed-loop", "--threads",
                                       "8"};
    std::vector<char*> argv = {const_cast<char*>("prog"),
                               const_cast<char*>("cmd")};
    for (auto& t : tokens)
        argv.push_back(t.data());
    CliArgs args;
    std::string err;
    ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data(),
                           2, kSpec, kCommon, &err))
        << err;
    EXPECT_EQ(args.getInt("requests", 0), 500);
    EXPECT_EQ(args.get("mode", ""), "fast");
    EXPECT_TRUE(args.has("closed-loop"));
    EXPECT_EQ(args.getInt("threads", 0), 8);
    // Absent flags fall back.
    EXPECT_EQ(args.getInt("absent", 7), 7);
    EXPECT_FALSE(args.has("absent"));
}

TEST(CliFlags, RejectsTrailingGarbageOnIntegers)
{
    auto [ok, err] = tryParse({"--requests", "10x"});
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("--requests"), std::string::npos);
    EXPECT_NE(err.find("'10x'"), std::string::npos);
    EXPECT_NE(err.find("valid flags:"), std::string::npos);

    EXPECT_FALSE(tryParse({"--requests", ""}).first);
    EXPECT_FALSE(tryParse({"--requests", "1 2"}).first);
    EXPECT_FALSE(tryParse({"--requests", "0x10"}).first);
}

TEST(CliFlags, RejectsOutOfRangeValues)
{
    auto [ok, err] = tryParse({"--threads", "99999"});
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("[0, 512]"), std::string::npos);
    EXPECT_NE(err.find("valid flags:"), std::string::npos);

    EXPECT_FALSE(tryParse({"--requests", "0"}).first);  // min is 1
    EXPECT_FALSE(tryParse({"--requests", "-5"}).first);
    EXPECT_TRUE(tryParse({"--threads", "0"}).first);    // inclusive
    EXPECT_TRUE(tryParse({"--threads", "512"}).first);
}

TEST(CliFlags, RejectsUnknownFlagsAndPositionals)
{
    auto [ok, err] = tryParse({"--no-such-flag", "1"});
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("unknown flag '--no-such-flag'"),
              std::string::npos);
    EXPECT_NE(err.find("--requests"), std::string::npos); // listed

    EXPECT_FALSE(tryParse({"positional"}).first);
    EXPECT_FALSE(tryParse({"--requests"}).first); // missing value
}

TEST(CliFlags, PassthroughCollectsFlagsOutsideTheSpec)
{
    std::vector<std::string> tokens = {"--faults.arrivals", "0.1",
                                       "--threads",         "2",
                                       "stray",             "--servers"};
    std::vector<char*> argv = {const_cast<char*>("prog"),
                               const_cast<char*>("cmd")};
    for (auto& t : tokens)
        argv.push_back(t.data());
    CliArgs args;
    std::string err;
    std::vector<std::string> rest;
    ASSERT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data(), 2,
                           kSpec, kCommon, &err, &rest))
        << err;
    EXPECT_EQ(args.getInt("threads", 0), 2);
    EXPECT_EQ(rest, (std::vector<std::string>{"--faults.arrivals", "0.1",
                                              "stray", "--servers"}));
    // Spec'd flags keep their strict validation.
    tokens = {"--threads", "2x"};
    argv.resize(2);
    for (auto& t : tokens)
        argv.push_back(t.data());
    CliArgs strict;
    EXPECT_FALSE(strict.parse(static_cast<int>(argv.size()), argv.data(),
                              2, kSpec, kCommon, &err, &rest));
}

TEST(CliFlags, RandomArgvNeverCrashes)
{
    // bolt_cli's real specs and the common list every program takes,
    // each parsed with and without passthrough (the stage commands use
    // it).
    const std::vector<CliFlagSpec>& common = util::kCommonFlags;
    const std::vector<const std::vector<CliFlagSpec>*> specs = {
        &scenario::kStageCliFlags, &scenario::kRunCliFlags,
        &scenario::kReportCliFlags};
    // Spec names, near misses, values at and just past each Int range
    // edge, and garbage.
    std::vector<std::string> tokens = {"",  "-",  "--", "---", "x", "10x",
                                       "1e3", "nan", " 5", "+5", "0x10",
                                       "99999999999999999999", "--=1",
                                       "\xff", "-threads", "--threads="};
    for (const auto* list : {specs[0], specs[1], specs[2], &common}) {
        for (const CliFlagSpec& f : *list) {
            std::string name = f.name;
            tokens.push_back("--" + name);
            tokens.push_back("--" + name + "s");
            tokens.push_back("--" + name.substr(1));
            tokens.push_back("-" + name);
            if (f.kind != FlagKind::Int)
                continue;
            auto lo = static_cast<long long>(f.min);
            auto hi = static_cast<long long>(f.max);
            for (long long v : {lo - 1, lo, hi, hi + 1})
                tokens.push_back(std::to_string(v));
        }
    }

    std::mt19937_64 rng(20170408);
    for (int i = 0; i < 2000; ++i) {
        const std::vector<CliFlagSpec>& spec = *specs[rng() % specs.size()];
        bool passthrough = rng() & 1;
        std::vector<std::string> argv_tokens = {"bolt_cli", "cmd"};
        for (size_t n = rng() % 8; n--;)
            argv_tokens.push_back(tokens[rng() % tokens.size()]);
        std::vector<char*> argv;
        for (std::string& t : argv_tokens)
            argv.push_back(t.data());

        CliArgs args;
        std::string err;
        std::vector<std::string> rest;
        bool ok = args.parse(static_cast<int>(argv.size()), argv.data(), 2,
                             spec, common, &err,
                             passthrough ? &rest : nullptr);
        std::string input;
        for (size_t k = 2; k < argv_tokens.size(); ++k)
            input += " '" + argv_tokens[k] + "'";
        SCOPED_TRACE(input);

        if (!ok) {
            // The diagnostic quotes an offending token and ends with
            // the complete valid-flags line.
            bool names_token = false;
            for (size_t k = 2; k < argv_tokens.size(); ++k)
                names_token = names_token ||
                              err.find("'" + argv_tokens[k] + "'") !=
                                  std::string::npos;
            EXPECT_TRUE(names_token) << err;
            EXPECT_TRUE(err.ends_with(CliArgs::validFlagsLine(spec, common)))
                << err;
            continue;
        }
        // Every accepted Int value lies inside its range.
        for (const std::vector<CliFlagSpec>* list : {&spec, &common})
            for (const CliFlagSpec& f : *list)
                if (f.kind == FlagKind::Int && args.has(f.name)) {
                    long long v = args.getInt(f.name, 0);
                    EXPECT_GE(v, f.min) << f.name;
                    EXPECT_LE(v, f.max) << f.name;
                }
        // Passthrough keeps argv order: it is a subsequence of argv.
        size_t at = 2;
        for (const std::string& t : rest) {
            while (at < argv_tokens.size() && argv_tokens[at] != t)
                ++at;
            ASSERT_LT(at, argv_tokens.size()) << "'" << t << "' out of order";
            ++at;
        }
    }
}

TEST(UtilParse, AcceptsWholeTokensOnly)
{
    long long i = -1;
    uint64_t u = 0;
    double d = 0.0;
    EXPECT_TRUE(util::parseInt("-42", &i));
    EXPECT_EQ(i, -42);
    EXPECT_TRUE(util::parseUInt("18446744073709551615", &u));
    EXPECT_EQ(u, UINT64_MAX);
    EXPECT_TRUE(util::parseDouble("1e-3", &d));
    EXPECT_EQ(d, 1e-3);
    for (const char* bad : {"", "10x", " 5", "+5", "0x10", "1 2"}) {
        long long before = i;
        EXPECT_FALSE(util::parseInt(bad, &i)) << bad;
        EXPECT_EQ(i, before) << "failed parse wrote *out";
        EXPECT_FALSE(util::parseDouble(bad, &d)) << bad;
    }
    EXPECT_FALSE(util::parseUInt("-1", &u));
    EXPECT_FALSE(util::parseUInt("18446744073709551616", &u));
    for (const char* bad : {"inf", "nan", "1e999", "-inf"})
        EXPECT_FALSE(util::parseDouble(bad, &d)) << bad;
}

TEST(UtilParse, FmtDoubleIsShortestRoundTrip)
{
    EXPECT_EQ(util::fmtDouble(2.0), "2");
    EXPECT_EQ(util::fmtDouble(0.25), "0.25");
    EXPECT_EQ(util::fmtDouble(0.1), "0.1");
    EXPECT_EQ(util::fmtDouble(-3.5), "-3.5");
    EXPECT_EQ(util::fmtDouble(1e-7), "1e-07");
    for (double v : {0.1 + 0.2, 1.0 / 3.0, 12345.678, 9.07e-300}) {
        double back = 0.0;
        ASSERT_TRUE(util::parseDouble(util::fmtDouble(v), &back));
        EXPECT_EQ(back, v) << util::fmtDouble(v);
    }
}

TEST(UtilParse, Hex64PadsToSixteenDigits)
{
    EXPECT_EQ(util::hex64(0), "0000000000000000");
    EXPECT_EQ(util::hex64(0xc21a1cdb71312d5full), "c21a1cdb71312d5f");
    EXPECT_EQ(util::hex64(0xabcull), "0000000000000abc");
}

} // namespace
