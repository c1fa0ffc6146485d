/**
 * @file
 * End-to-end tests of the bolt_cli binary's exit-code contract: `help`
 * prints usage and exits 0; unknown commands, keys, names and malformed
 * report dumps exit 2 with the valid names or a file:line; a stage
 * subcommand and `run` on its `--dump` print the same bytes.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CliRun
{
    int exitCode = -1;
    std::string out; ///< stdout.
    std::string err; ///< stderr.
};

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Run `bolt_cli <args>` through the shell, capturing both streams. */
CliRun
runCli(const std::string& args)
{
    // ctest runs each test in its own process, concurrently: key the
    // capture files by test name.
    std::string base = ::testing::TempDir() + "/cli_" +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    std::string out = base + ".out", err = base + ".err";
    std::string cmd = std::string(BOLT_CLI) + " " + args + " >" + out +
                      " 2>" + err;
    int status = std::system(cmd.c_str());
    CliRun run;
    run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = slurp(out);
    run.err = slurp(err);
    return run;
}

std::string
writeTemp(const std::string& name, const std::string& content)
{
    std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream(path) << content;
    return path;
}

TEST(BoltCli, HelpPrintsUsageAndExitsZero)
{
    CliRun run = runCli("help");
    EXPECT_EQ(run.exitCode, 0);
    EXPECT_NE(run.out.find("usage: bolt_cli"), std::string::npos);
    EXPECT_EQ(runCli("").exitCode, 2); // No command is a usage error.
}

TEST(BoltCli, RenamedAndUnknownCommandsExitTwo)
{
    for (const char* gone : {"serve-bench", "dos", "coresidency",
                             "arms-race", "warmup"}) {
        CliRun run = runCli(gone);
        EXPECT_EQ(run.exitCode, 2) << gone;
        EXPECT_NE(run.err.find("unknown command"), std::string::npos)
            << gone;
    }
    CliRun run = runCli("experiment --isolation bogus");
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_NE(run.err.find("must be one of none, pinning, net, mem, "
                           "cache, core-full, core-only"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(runCli("experiment --threads 2x").exitCode, 2);
    EXPECT_EQ(runCli("report --dump").exitCode, 2);
}

TEST(BoltCli, DetectUnknownFamilyListsValidFamilies)
{
    CliRun run = runCli("detect --family nope");
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_NE(run.err.find("unknown family 'nope'"), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("memcached"), std::string::npos) << run.err;
    EXPECT_NE(run.err.find("hadoop"), std::string::npos) << run.err;
}

TEST(BoltCli, StageCommandPrintsTheSameBytesAsRunOfItsDump)
{
    for (const std::string flags :
         {"attack --kind coresidency --probes 3 --waves 2 --seed 7",
          "detect --family cassandra --seed 7"}) {
        SCOPED_TRACE(flags);
        CliRun direct = runCli(flags + " --threads 1");
        ASSERT_EQ(direct.exitCode, 0) << direct.err;
        CliRun dump = runCli(flags + " --dump");
        ASSERT_EQ(dump.exitCode, 0) << dump.err;
        std::string scn = writeTemp("cli_dump.scn", dump.out);
        CliRun replay = runCli("run --scenario " + scn);
        ASSERT_EQ(replay.exitCode, 0) << replay.err;
        EXPECT_EQ(direct.out, replay.out);
        EXPECT_EQ(direct.out, runCli(flags + " --threads 8").out);
        EXPECT_NE(direct.out.find("seed=7"), std::string::npos);
    }
}

TEST(BoltCli, ReportRejectsMalformedNumbersWithFileLine)
{
    std::string dump = writeTemp(
        "cli_bad.jsonl",
        "{\"bolt_telemetry\":1,\"window_sec\":1,\"series_dropped\":0}\n"
        "{\"series\":\"serve.queue_depth\",\"window\":zz,\"count\":7x,"
        "\"mean\":\"abc\"}\n");
    CliRun run = runCli("report --telemetry " + dump);
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_NE(run.err.find("cli_bad.jsonl:2: field 'window'"),
              std::string::npos)
        << run.err;
}

TEST(BoltCli, ReportRendersHugeWindowIdsInBoundedMemory)
{
    // One slot per window would need ~1e14 slots; the sparkline
    // aggregates straight into its fixed columns instead.
    std::string dump = writeTemp(
        "cli_huge.jsonl",
        "{\"bolt_telemetry\":1,\"window_sec\":1,\"series_dropped\":0}\n"
        "{\"series\":\"serve.queue_depth\",\"window\":0,\"t\":0,"
        "\"count\":1,\"sum\":4,\"mean\":4,\"p50\":4,\"p95\":4,\"p99\":4}\n"
        "{\"series\":\"serve.queue_depth\",\"window\":100000000000000,"
        "\"t\":1e14,\"count\":1,\"sum\":8,\"mean\":8,\"p50\":8,\"p95\":8,"
        "\"p99\":8}\n");
    CliRun run = runCli("report --telemetry " + dump);
    EXPECT_EQ(run.exitCode, 0) << run.err;
    EXPECT_NE(run.out.find("windows 0..100000000000000"), std::string::npos)
        << run.out;
    EXPECT_NE(run.out.find("serve.queue_depth"), std::string::npos);
}

TEST(BoltCli, TelemetryWindowRejectsNonFiniteValues)
{
    for (const char* bad : {"inf", "1e999"}) {
        EXPECT_EQ(runCli(std::string("detect --telemetry-window ") + bad)
                      .exitCode,
                  2)
            << bad;
    }
}

} // namespace
