/**
 * @file
 * Shipped-scenario determinism suite (SLOW — runs every scenario in
 * scenarios/ twice): for each file, the full runner output and the run
 * digest must be byte-identical at 1 and 8 threads, and must match the
 * committed golden in scenarios/golden/ (the same gate
 * scripts/check.sh --scenario applies through the CLI). The scenario
 * list is read from disk, so every .scn file needs a golden and every
 * golden a .scn file.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/thread_pool.h"

using namespace bolt;

namespace {

std::string
repoPath(const std::string& rel)
{
    return std::string(BOLT_REPO_DIR) + "/" + rel;
}

/** Stems of the files in `dir` (relative to the repo) ending in `ext`. */
std::set<std::string>
stems(const std::string& dir, const std::string& ext)
{
    std::set<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(repoPath(dir)))
        if (entry.path().extension() == ext)
            names.insert(entry.path().stem().string());
    return names;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

struct RunCapture
{
    std::string output;
    scenario::RunResult result;
};

RunCapture
runAt(const scenario::Scenario& s, unsigned threads)
{
    util::ThreadPool::setGlobalThreads(threads);
    std::ostringstream os;
    RunCapture run;
    run.result = scenario::runScenario(s, os);
    run.output = os.str();
    return run;
}

TEST(ScenarioLibrary, ThreadCountInvariantAndGoldenStable)
{
    const std::set<std::string> shipped = stems("scenarios", ".scn");
    ASSERT_FALSE(shipped.empty());
    EXPECT_EQ(shipped, stems("scenarios/golden", ".golden"))
        << "every scenarios/*.scn needs a scenarios/golden/*.golden and "
           "every golden a scenario";
    for (const std::string& name : shipped) {
        SCOPED_TRACE(name);
        scenario::Scenario s;
        std::string err;
        ASSERT_TRUE(scenario::compileFile(
            repoPath("scenarios/" + name + ".scn"), &s, &err))
            << err;

        RunCapture one = runAt(s, 1);
        RunCapture eight = runAt(s, 8);
        EXPECT_EQ(one.result.digest, eight.result.digest);
        EXPECT_EQ(one.output, eight.output);
        EXPECT_GT(one.result.stagesRun, 0);

        std::string golden =
            readFile(repoPath("scenarios/golden/" + name + ".golden"));
        EXPECT_EQ(one.output, golden)
            << "scenario output drifted from scenarios/golden/" << name
            << ".golden — if the change is intentional, regenerate "
               "with scripts/check.sh --scenario --update";
    }
    util::ThreadPool::setGlobalThreads(0);
}

} // namespace
