/**
 * @file
 * End-to-end tests of the bolt_cli binary's contract: `help` prints
 * usage and exits 0; unknown commands, keys, names, missing files and
 * malformed report dumps exit 2 with the valid names or a file:line; a
 * failed `expect:` exits 3; a stage subcommand and `run` on its
 * `--dump` print the same bytes; the observability and telemetry flags
 * never change stdout, and what they write is the same at any
 * --threads, and nothing when no run starts; an experiment reports its
 * simulated seconds; the fleet digest is the same at any shard count.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include "json_validator.h"

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

/**
 * A temporary path for a file bolt_cli writes. ctest runs each test in its
 * own process, concurrently: the path is keyed by the test name.
 */
std::string
tempPath(const std::string& suffix)
{
    return ::testing::TempDir() + "/cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + suffix;
}

/** Run `bolt_cli <args>` through the shell, capturing both streams. */
CliRun
runCli(const std::string& args)
{
    std::string out = tempPath("out"), err = tempPath("err");
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

    run = runCli("run");
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_NE(run.err.find("run requires --scenario"), std::string::npos)
        << run.err;
    run = runCli("run --scenario " + tempPath("does_not_exist.scn"));
    EXPECT_EQ(run.exitCode, 2);
    EXPECT_NE(run.err.find("does_not_exist.scn:1: cannot open"),
              std::string::npos)
        << run.err;
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

/** The number after `"key": ` in a JSON text, or -1 when it is absent. */
double
jsonNumber(const std::string& json, const std::string& key)
{
    std::smatch m;
    std::regex re("\"" + key + "\": *([-0-9.e+]+)");
    return std::regex_search(json, m, re) ? std::stod(m[1]) : -1.0;
}

TEST(BoltCli, ObservabilityFlagsNeverChangeStdout)
{
    const std::string flags = "experiment --servers 8 --victims 20 --seed 7";
    std::string off[2], trace[2];
    for (int i = 0; i < 2; ++i) {
        std::string threads = i ? "8" : "1";
        SCOPED_TRACE("--threads " + threads);
        CliRun plain = runCli(flags + " --threads " + threads);
        ASSERT_EQ(plain.exitCode, 0) << plain.err;
        std::string metrics = tempPath("m" + threads + ".json");
        std::string traced = tempPath("t" + threads + ".json");
        CliRun on = runCli(flags + " --threads " + threads +
                           " --metrics-out " + metrics + " --trace-out " +
                           traced + " --log-level error");
        ASSERT_EQ(on.exitCode, 0) << on.err;
        EXPECT_EQ(plain.out, on.out);
        off[i] = plain.out;

        std::string report = slurp(metrics);
        EXPECT_TRUE(bolt::test::JsonValidator(report).valid()) << report;
        EXPECT_EQ(jsonNumber(report, "bolt_run_report"), 1.0);
        EXPECT_NE(report.find("\"command\": \"experiment\""),
                  std::string::npos);
        EXPECT_GT(jsonNumber(report, "detector\\.rounds"), 0.0);
        trace[i] = slurp(traced);
        EXPECT_TRUE(bolt::test::JsonValidator(trace[i]).valid());
        EXPECT_NE(trace[i].find("{\"name\":\"detector.round\","),
                  std::string::npos);
    }
    EXPECT_EQ(off[0], off[1]);
    EXPECT_EQ(trace[0], trace[1]);
}

TEST(BoltCli, ExperimentReportsItsSimSecondsAtAnyThreadCount)
{
    // The run report's sim_seconds is the detection phase's simulated
    // span: positive, and the same whatever the pool width.
    double sim[2];
    for (int i = 0; i < 2; ++i) {
        std::string threads = i ? "8" : "1";
        std::string metrics = tempPath("m" + threads + ".json");
        CliRun run = runCli("experiment --servers 8 --victims 20 --seed 7 "
                            "--log-level error --threads " +
                            threads + " --metrics-out " + metrics);
        ASSERT_EQ(run.exitCode, 0) << run.err;
        sim[i] = jsonNumber(slurp(metrics), "sim_seconds");
    }
    EXPECT_GT(sim[0], 0.0);
    EXPECT_EQ(sim[0], sim[1]);
}

TEST(BoltCli, ExitBeforeTheRunStartsWritesNoOutputFile)
{
    // A missing include and an out-of-range key fail the compile, so no
    // run starts and the --*-out flags leave no file; a run that starts
    // writes all three.
    const char* files[] = {"m.json", "t.json", "tel.jsonl"};
    const std::string outs = " --metrics-out " + tempPath(files[0]) +
                             " --trace-out " + tempPath(files[1]) +
                             " --telemetry-out " + tempPath(files[2]);
    auto written = [&] {
        int n = 0;
        for (const char* f : files)
            n += std::ifstream(tempPath(f)).good() ? 1 : 0;
        return n;
    };
    for (const std::string& args :
         {"include --path " + tempPath("nope.scn"),
          std::string("experiment --servers 0")}) {
        SCOPED_TRACE(args);
        for (const char* f : files)
            std::remove(tempPath(f).c_str());
        CliRun run = runCli(args + outs);
        EXPECT_EQ(run.exitCode, 2) << run.err;
        EXPECT_EQ(written(), 0);
    }
    CliRun run = runCli("detect --family memcached" + outs);
    ASSERT_EQ(run.exitCode, 0) << run.err;
    EXPECT_EQ(written(), 3);
    EXPECT_NE(slurp(tempPath(files[0])).find("\"command\": \"detect\""),
              std::string::npos);
}

TEST(BoltCli, TelemetryOutNeverChangesStdoutAndIsThreadInvariant)
{
    const std::string run = "run --scenario " BOLT_REPO_DIR
                            "/scenarios/flash_crowd.scn";
    CliRun plain = runCli(run);
    ASSERT_EQ(plain.exitCode, 0) << plain.err;
    std::string dump[2];
    for (int i = 0; i < 2; ++i) {
        std::string threads = i ? "8" : "1";
        std::string path = tempPath("t" + threads + ".jsonl");
        CliRun tel = runCli(run + " --threads " + threads +
                            " --telemetry-out " + path);
        ASSERT_EQ(tel.exitCode, 0) << tel.err;
        EXPECT_EQ(plain.out, tel.out) << "--threads " << threads;
        dump[i] = slurp(path);
    }
    EXPECT_EQ(dump[0], dump[1]);
    EXPECT_EQ(dump[0].rfind("{\"bolt_telemetry\":1,", 0), 0u);

    CliRun report =
        runCli("report --telemetry " + tempPath("t1.jsonl") + " --top 3");
    EXPECT_EQ(report.exitCode, 0) << report.err;
    EXPECT_NE(report.out.find("serve.latency_ms"), std::string::npos)
        << report.out;
    // Run output is no telemetry dump: a usage error, not an empty report.
    report = runCli("report --telemetry " +
                    writeTemp("cli_not_telemetry.txt", plain.out));
    EXPECT_EQ(report.exitCode, 2);
    EXPECT_NE(report.err.find("not a bolt telemetry dump"),
              std::string::npos)
        << report.err;
}

TEST(BoltCli, FailedExpectExitsThreeWithFileLine)
{
    std::string scn = writeTemp("cli_failing.scn",
                                "scenario: failing-expect\n"
                                "seed: 5\n"
                                "stages:\n"
                                "  - stage: serve\n"
                                "    requests: 200\n"
                                "    qps: 2000\n"
                                "expect:\n"
                                "  - metric: serve.completed\n"
                                "    min: 1000000\n");
    CliRun run = runCli("run --scenario " + scn);
    EXPECT_EQ(run.exitCode, 3);
    EXPECT_NE(run.err.find("cli_failing.scn:8: expectation failed"),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.out.find("expect: 0/1 FAILED"), std::string::npos)
        << run.out;
}

TEST(BoltCli, FleetDigestIsTheSameAtAnyShardCount)
{
    const std::string flags = "fleet --hosts 800 --tenants 4000 --epochs 5 "
                              "--host-faults 0.02 --seed 2017 --threads 8";
    CliRun one = runCli(flags + " --shards 1");
    ASSERT_EQ(one.exitCode, 0) << one.err;
    CliRun sixteen = runCli(flags + " --shards 16");
    ASSERT_EQ(sixteen.exitCode, 0) << sixteen.err;
    // Shards partition work, never outcomes: only the shard count and
    // the cross-shard migration statistic may differ.
    EXPECT_NE(one.out.find(" cross-shard=0 "), std::string::npos) << one.out;
    EXPECT_EQ(sixteen.out.find(" cross-shard=0 "), std::string::npos)
        << sixteen.out;
    const std::regex shardFields("(shards|cross-shard)=[0-9]+");
    EXPECT_EQ(std::regex_replace(one.out, shardFields, "$1=N"),
              std::regex_replace(sixteen.out, shardFields, "$1=N"));
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
