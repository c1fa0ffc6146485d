/**
 * @file
 * Scenario-layer tests (tier1, fast — no experiments run here):
 *
 *  - text parser shape and strictness (line-numbered error goldens)
 *  - compiler validation messages for malformed files, including the
 *    cyclic-include and modifier-only-faults cases
 *  - compile -> dump -> recompile graph identity for synthetic and
 *    every shipped scenario
 *  - schema/documentation sync: the key tables embedded in
 *    docs/SCENARIOS.md must equal schemaKeys() row by row, every
 *    column, and dump() must emit every leaf key (so the table, the
 *    compiler and the doc cannot drift apart)
 *  - bolt_cli's flag front end (compileFlags): every stage kind
 *    compiled from flags dumps, recompiles and runs (at toy sizes) to
 *    the same graph and run digests, and every enum name table
 *    round-trips and rejects a bogus name with the full valid list
 *  - seeded fuzzing: random valid scenarios drawn from schemaKeys()
 *    round-trip through dump(); mutated shipped files and random flag
 *    lists compile or fail with a diagnostic, never crash or hang
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "scenario/text.h"
#include "util/parse.h"
#include "workloads/catalog.h"

using namespace bolt;
using scenario::Scenario;
using scenario::TextNode;

namespace {

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path);
    out << content;
}

/** Compile expecting failure; returns the diagnostic. */
std::string
compileError(const std::string& source)
{
    Scenario s;
    std::string err;
    EXPECT_FALSE(scenario::compileText(source, "bad.scn", &s, &err))
        << "expected a compile error for:\n"
        << source;
    return err;
}

std::string
repoPath(const std::string& rel)
{
    return std::string(BOLT_REPO_DIR) + "/" + rel;
}

/** Names of the shipped scenarios (scenarios/<name>.scn), sorted. */
std::vector<std::string>
shippedScenarios()
{
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(repoPath("scenarios")))
        if (entry.path().extension() == ".scn")
            names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

// ---------------------------------------------------------------- text

TEST(ScenarioText, ParsesScalarsMapsAndLists)
{
    TextNode root;
    std::string err;
    ASSERT_TRUE(scenario::parseText("a: 1\n"
                                    "b:\n"
                                    "  c: x  # trailing comment\n"
                                    "# full-line comment\n"
                                    "d:\n"
                                    "  - e: 1\n"
                                    "    f: 2\n"
                                    "  - plain\n",
                                    "t.scn", &root, &err))
        << err;
    ASSERT_EQ(root.entries.size(), 3u);
    EXPECT_EQ(root.find("a")->scalar, "1");
    EXPECT_EQ(root.find("b")->kind, TextNode::Kind::Map);
    EXPECT_EQ(root.find("b")->find("c")->scalar, "x");
    const TextNode* d = root.find("d");
    ASSERT_EQ(d->kind, TextNode::Kind::List);
    ASSERT_EQ(d->items.size(), 2u);
    EXPECT_EQ(d->items[0].find("e")->scalar, "1");
    EXPECT_EQ(d->items[0].find("f")->scalar, "2");
    EXPECT_EQ(d->items[0].find("f")->line, 7);
    EXPECT_EQ(d->items[1].scalar, "plain");
}

TEST(ScenarioText, ErrorGoldens)
{
    struct Case
    {
        const char* source;
        const char* expected;
    };
    const Case kCases[] = {
        {"\tkey: 1\n",
         "t.scn:1: tab characters are not allowed in indentation "
         "(use spaces)"},
        {"a: 1\na: 2\n", "t.scn:2: duplicate key 'a'"},
        {"a: 1\njust words\n",
         "t.scn:2: expected 'key: value' (missing ':')"},
        {"", "t.scn:1: empty scenario file"},
        {"a:\nb: 2\n",
         "t.scn:1: key 'a' has neither a value nor an indented block"},
        {"a: 1\n- item\n",
         "t.scn:2: list item not allowed inside a key/value block"},
        {"a: 1\n  b: 2\n", "t.scn:2: unexpected indentation"},
        {"  a: 1\n", "t.scn:1: top-level entries must not be indented"},
        {"- a: 1\n",
         "t.scn:1: top level must be 'key: value' entries, not a list"},
        {"a!: 1\n",
         "t.scn:1: invalid key 'a!' (letters, digits, '-', '_' only)"},
    };
    for (const Case& c : kCases) {
        TextNode root;
        std::string err;
        EXPECT_FALSE(scenario::parseText(c.source, "t.scn", &root, &err));
        EXPECT_EQ(err, c.expected);
    }
}

// ------------------------------------------------------------ compiler

TEST(ScenarioCompile, MinimalScenario)
{
    Scenario s;
    std::string err;
    ASSERT_TRUE(scenario::compileText("scenario: tiny\n"
                                      "stages:\n"
                                      "  - stage: serve\n",
                                      "tiny.scn", &s, &err))
        << err;
    EXPECT_EQ(s.name, "tiny");
    EXPECT_EQ(s.seed, 1u);
    ASSERT_EQ(s.stages.size(), 1u);
    EXPECT_EQ(s.stages[0].kind, scenario::StageKind::Serve);
    EXPECT_EQ(s.stages[0].name, "serve-0"); // <kind>-<index> default.
    EXPECT_EQ(s.stages[0].serve.config.load.requests, 1000u);
}

TEST(ScenarioCompile, ErrorGoldens)
{
    EXPECT_EQ(compileError("stages:\n  - stage: serve\n"),
              "bad.scn:1: missing required key 'scenario' in top level");
    EXPECT_EQ(compileError("scenario: x\n"),
              "bad.scn:1: missing required key 'stages' in top level");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    serveurs: 9\n"),
              "bad.scn:4: unknown key 'serveurs' in experiment stage "
              "(valid: stage, name, seed, servers, victims, policy, "
              "platform, isolation, obfuscation, faults)");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    servers: 0\n"),
              "bad.scn:4: value 0 for 'servers' out of range "
              "[1, 100000]");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    servers: 10x\n"),
              "bad.scn:4: value '10x' for 'servers' is not an integer");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    policy: fifo\n"),
              "bad.scn:4: value 'fifo' for 'policy' must be one of "
              "least-loaded, quasar");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: warmup\n"),
              "bad.scn:3: value 'warmup' for 'stage' must be one of "
              "experiment, serve, attack, include, fleet, armsrace, detect");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - name: no-discriminator\n"),
              "bad.scn:3: each stages[] item must begin with "
              "'- stage: experiment|serve|attack|include|fleet"
              "|armsrace|detect'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: attack\n"),
              "bad.scn:3: missing required key 'kind' in attack stage");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: detect\n"
                           "    family: nope\n")
                  .rfind("bad.scn:4: unknown family 'nope' for 'family' "
                         "(valid: hadoop, spark, memcached, ",
                         0),
              0u);
    // A dos attack must not take coresidency keys (and vice versa).
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: attack\n"
                           "    kind: dos\n"
                           "    probes: 4\n"),
              "bad.scn:5: unknown key 'probes' in attack stage "
              "(valid: stage, name, seed, kind, margin, top-resources, "
              "duration-sec)");
    // Modifier-only fault plans (a seed or a spike magnitude with every
    // rate at zero) would silently do nothing -> rejected.
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    faults:\n"
                           "      spike-mag: 50\n"),
              "bad.scn:4: faults block enables no fault rate (set one "
              "of: arrivals, departures, phase-flips, dropouts, "
              "spikes, jitter)");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    faults:\n"
                           "      seed: 7\n"
                           "      spike-mag: 60\n"),
              "bad.scn:4: faults block enables no fault rate (set one "
              "of: arrivals, departures, phase-flips, dropouts, "
              "spikes, jitter)");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    faults:\n"
                           "      jitter: 1\n"),
              "bad.scn:5: value 1 for 'jitter' out of range [0, 1)");
    // Unknown fault keys list the valid set so the typo self-corrects.
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: experiment\n"
                           "    faults:\n"
                           "      dropout: 0.1\n"),
              "bad.scn:5: unknown key 'dropout' in faults block (valid: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "spike-mag, jitter, jitter-window, seed)");
    // Fault rates are probabilities, windows positive, seeds unsigned.
    const std::pair<const char*, const char*> kBadFaults[] = {
        {"arrivals: 1.5", "value 1.5 for 'arrivals' out of range [0, 1]"},
        {"dropouts: -0.1",
         "value -0.1 for 'dropouts' out of range [0, 1]"},
        {"dropouts: nope", "value 'nope' for 'dropouts' is not a number"},
        {"spike-mag: 500",
         "value 500 for 'spike-mag' out of range [0, 100]"},
        {"jitter-window: 0",
         "value 0 for 'jitter-window' out of range [0.001, 3600]"},
        {"seed: -3", "value '-3' for 'seed' is not an unsigned integer"},
    };
    for (const auto& [line, message] : kBadFaults) {
        EXPECT_EQ(compileError(std::string("scenario: x\n"
                                           "stages:\n"
                                           "  - stage: experiment\n"
                                           "    faults:\n"
                                           "      phase-flips: 0.1\n"
                                           "      ") +
                               line + "\n"),
                  std::string("bad.scn:6: ") + message);
    }
    // Ramps shape offered load; a closed loop ignores offered load.
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: serve\n"
                           "    loop: closed\n"
                           "    arrival:\n"
                           "      shape: flash-crowd\n"),
              "bad.scn:6: arrival shape 'flash-crowd' requires loop: "
              "open (a closed loop paces itself; offered QPS has no "
              "effect)");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: include\n"
                           "    path: nope_does_not_exist.scn\n"),
              "bad.scn:4: cannot open include "
              "'nope_does_not_exist.scn'");
}

TEST(ScenarioCompile, SloAndExpectErrorGoldens)
{
    // Per-kind key claiming: a threshold-only key on a burn-rate rule
    // fails loudly with the valid set (same idiom as attack stages).
    EXPECT_EQ(compileError("scenario: x\n"
                           "slo:\n"
                           "  - rule: r\n"
                           "    kind: burn-rate\n"
                           "    series: serve.tenant_requests\n"
                           "    total-series: serve.tenant_requests\n"
                           "    agg: p99\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:7: unknown key 'agg' in burn-rate slo rule "
              "(valid: kind, rule, series, label, total-series, "
              "total-label, budget, value, short-windows, "
              "long-windows)");
    EXPECT_EQ(compileError("scenario: x\n"
                           "slo:\n"
                           "  - rule: r\n"
                           "    series: not.a.series\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:4: value 'not.a.series' for 'series' must be one of "
              "serve.queue_depth, serve.batch_size, serve.latency_ms, "
              "serve.tenant_requests, detector.round_events, "
              "detector.retry_events, detector.abstentions, fault.events, "
              "sched.migrations, dos.victim_p99_ms, dos.host_cpu_util, "
              "fleet.util, fleet.shard_util, fleet.churn_events, "
              "colo.coresidency_events, colo.attacker_launches");
    EXPECT_EQ(compileError("scenario: x\n"
                           "slo:\n"
                           "  - rule: twice\n"
                           "    series: serve.queue_depth\n"
                           "  - rule: twice\n"
                           "    series: serve.batch_size\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:5: duplicate slo rule name 'twice'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - metric: serve.completed\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:3: metric expectation on 'serve.completed' "
              "needs 'min' and/or 'max'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - metric: serve.p99_latency_ms\n"
                           "    min: 1\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:3: unknown counter metric "
              "'serve.p99_latency_ms' for 'metric'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - metric: serve.completed\n"
                           "    min: 10\n"
                           "    max: 5\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:3: expectation min 10 exceeds max 5");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - min: 1\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:3: expect item needs exactly one of 'metric' "
              "or 'slo'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - slo: fired\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:3: expect slo: fired requires "
              "'rule: <slo rule name>'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "expect:\n"
                           "  - slo: fired\n"
                           "    rule: ghost\n"
                           "stages:\n"
                           "  - stage: serve\n"),
              "bad.scn:4: expect references undeclared slo rule "
              "'ghost'");
}

TEST(ScenarioCompile, CyclicIncludeIsRejected)
{
    std::string dir = ::testing::TempDir();
    writeFile(dir + "/cyc_a.scn", "scenario: a\n"
                                  "stages:\n"
                                  "  - stage: include\n"
                                  "    path: cyc_b.scn\n");
    writeFile(dir + "/cyc_b.scn", "scenario: b\n"
                                  "stages:\n"
                                  "  - stage: include\n"
                                  "    path: cyc_a.scn\n");
    Scenario s;
    std::string err;
    EXPECT_FALSE(scenario::compileFile(dir + "/cyc_a.scn", &s, &err));
    EXPECT_NE(err.find("cyc_b.scn:4: cyclic include of 'cyc_a.scn'"),
              std::string::npos)
        << err;
    // Self-include is the 1-cycle.
    writeFile(dir + "/cyc_self.scn", "scenario: s\n"
                                     "stages:\n"
                                     "  - stage: include\n"
                                     "    path: cyc_self.scn\n");
    EXPECT_FALSE(scenario::compileFile(dir + "/cyc_self.scn", &s, &err));
    EXPECT_NE(err.find("cyclic include of 'cyc_self.scn'"),
              std::string::npos)
        << err;
}

// ----------------------------------------------------------- round-trip

TEST(ScenarioRoundTrip, SyntheticAllFeatures)
{
    std::string dir = ::testing::TempDir();
    writeFile(dir + "/rt_child.scn", "scenario: child\n"
                                     "stages:\n"
                                     "  - stage: attack\n"
                                     "    kind: coresidency\n");
    const std::string source = "scenario: everything\n"
                               "description: all stage kinds at once\n"
                               "seed: 99\n"
                               "slo-window-sec: 0.25\n"
                               "slo:\n"
                               "  - rule: latency-hot\n"
                               "    kind: threshold\n"
                               "    series: serve.latency_ms\n"
                               "    label: completed\n"
                               "    agg: p95\n"
                               "    value: 40.5\n"
                               "  - rule: victim-burn\n"
                               "    kind: burn-rate\n"
                               "    series: serve.tenant_requests\n"
                               "    total-series: serve.tenant_requests\n"
                               "    budget: 0.125\n"
                               "    value: 1.5\n"
                               "    short-windows: 2\n"
                               "    long-windows: 8\n"
                               "  - rule: feed-silent\n"
                               "    kind: absence\n"
                               "    series: serve.queue_depth\n"
                               "    windows: 3\n"
                               "expect:\n"
                               "  - metric: serve.requests_offered\n"
                               "    min: 100\n"
                               "  - metric: serve.shed_deadline\n"
                               "    max: 10000\n"
                               "  - slo: no-alerts-firing\n"
                               "  - slo: not-fired\n"
                               "    rule: feed-silent\n"
                               "stages:\n"
                               "  - stage: serve\n"
                               "    loop: open\n"
                               "    requests: 500\n"
                               "    qps: 250.5\n"
                               "    decompose-frac: 0.125\n"
                               "    arrival:\n"
                               "      shape: diurnal\n"
                               "      segments: 5\n"
                               "      floor-factor: 0.3\n"
                               "  - stage: serve\n"
                               "    loop: closed\n"
                               "    clients: 9\n"
                               "    think-ms: 2.5\n"
                               "  - stage: experiment\n"
                               "    policy: quasar\n"
                               "    platform: container\n"
                               "    isolation: cache\n"
                               "    obfuscation: 0.4\n"
                               "    faults:\n"
                               "      arrivals: 0.25\n"
                               "      jitter: 0.1\n"
                               "      jitter-window: 7.5\n"
                               "  - stage: attack\n"
                               "    kind: dos\n"
                               "    margin: 1.3\n"
                               "  - stage: attack\n"
                               "    kind: coresidency\n"
                               "    waves: 3\n"
                               "  - stage: fleet\n"
                               "    hosts: 32\n"
                               "    shards: 4\n"
                               "    host-faults: 0.01\n"
                               "  - stage: include\n"
                               "    path: rt_child.scn\n"
                               "    repeat: 2\n";
    Scenario first;
    std::string err;
    ASSERT_TRUE(scenario::compileText(source, dir + "/rt.scn", &first,
                                      &err))
        << err;
    std::string dumped = first.dump();
    Scenario second;
    ASSERT_TRUE(scenario::compileText(dumped, dir + "/rt.scn", &second,
                                      &err))
        << err << "\ndump was:\n"
        << dumped;
    EXPECT_EQ(first.graphDigest(), second.graphDigest());
    EXPECT_EQ(dumped, second.dump());
}

TEST(ScenarioRoundTrip, SloWindowWithoutRules)
{
    // The window is a key like any other: the dump writes it even when
    // no slo: or expect: block would use it.
    Scenario first;
    std::string err;
    ASSERT_TRUE(scenario::compileText("scenario: w\n"
                                      "slo-window-sec: 2\n"
                                      "stages:\n"
                                      "  - stage: fleet\n",
                                      "w.scn", &first, &err))
        << err;
    std::string dumped = first.dump();
    Scenario second;
    ASSERT_TRUE(scenario::compileText(dumped, "w.scn", &second, &err))
        << err;
    EXPECT_EQ(second.sloWindowSec, 2.0);
    EXPECT_EQ(first.graphDigest(), second.graphDigest());
    EXPECT_EQ(dumped, second.dump());
}

TEST(ScenarioRoundTrip, EveryShippedScenario)
{
    const std::vector<std::string> shipped = shippedScenarios();
    ASSERT_FALSE(shipped.empty());
    for (const std::string& name : shipped) {
        std::string path = repoPath("scenarios/" + name + ".scn");
        Scenario first;
        std::string err;
        ASSERT_TRUE(scenario::compileFile(path, &first, &err)) << err;
        std::string dumped = first.dump();
        Scenario second;
        // Recompile under a filename in the same directory so include
        // stages resolve their relative paths.
        ASSERT_TRUE(scenario::compileText(
            dumped, repoPath("scenarios/roundtrip.scn"), &second, &err))
            << name << ": " << err;
        EXPECT_EQ(first.graphDigest(), second.graphDigest()) << name;
        EXPECT_EQ(dumped, second.dump()) << name;
    }
}

// ------------------------------------------------------- schema vs doc

TEST(ScenarioSchema, DocTableMatchesSchemaKeys)
{
    std::string doc = readFile(repoPath("docs/SCENARIOS.md"));
    // Only the "Schema reference" section defines keys; the gallery
    // table further down also uses "| `...`" rows.
    size_t begin = doc.find("## Schema reference");
    size_t end = doc.find("## Cookbook");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    // Key-table rows look like "| `stages[].servers` | int | ... |":
    // split on unescaped '|' and undo the \|, \< and \> escapes.
    std::vector<std::vector<std::string>> documented;
    std::stringstream lines(doc.substr(begin, end - begin));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        std::vector<std::string> cells(1);
        for (size_t i = 1; i + 1 < line.size(); ++i) {
            if (line[i] == '|')
                cells.emplace_back();
            else
                cells.back() += line[i] == '\\' ? line[++i] : line[i];
        }
        for (std::string& cell : cells) { // " `path` " -> "path"
            size_t first = cell.find_first_not_of(" `");
            size_t last = cell.find_last_not_of(" `");
            cell = first == std::string::npos
                       ? ""
                       : cell.substr(first, last - first + 1);
        }
        documented.push_back(cells);
    }
    const std::vector<scenario::KeyDoc>& keys = scenario::schemaKeys();
    ASSERT_FALSE(keys.empty());
    EXPECT_EQ(documented.size(), keys.size());
    for (size_t i = 0; i < std::min(documented.size(), keys.size()); ++i) {
        const scenario::KeyDoc& key = keys[i];
        std::vector<std::string> row = {key.path,         key.type,
                                        key.range,        key.defaultValue,
                                        key.determinism, key.help};
        EXPECT_EQ(documented[i], row)
            << "docs/SCENARIOS.md row " << i << " (" << documented[i][0]
            << ") differs from schemaKeys() row '" << key.path << "'";
    }
}

TEST(ScenarioSchema, DumpEmitsEveryLeafKey)
{
    // Compile a scenario exercising every stage kind, then check that
    // the canonical dump emits every key in the schema table — ties
    // schemaKeys() to what the compiler actually reads and writes.
    std::string dir = ::testing::TempDir();
    writeFile(dir + "/leaf_child.scn", "scenario: child\n"
                                       "stages:\n"
                                       "  - stage: serve\n");
    const std::string source = "scenario: everything\n"
                               "description: leaf coverage\n"
                               "slo-window-sec: 0.5\n"
                               "slo:\n"
                               "  - rule: hot\n"
                               "    series: serve.latency_ms\n"
                               "    label: completed\n"
                               "    agg: p99\n"
                               "    op: above\n"
                               "    value: 50\n"
                               "    sustain-windows: 2\n"
                               "  - rule: burn\n"
                               "    kind: burn-rate\n"
                               "    series: serve.tenant_requests\n"
                               "    label: c0\n"
                               "    total-series: serve.tenant_requests\n"
                               "    total-label: c1\n"
                               "    budget: 0.05\n"
                               "    value: 2\n"
                               "    short-windows: 3\n"
                               "    long-windows: 9\n"
                               "  - rule: quiet\n"
                               "    kind: absence\n"
                               "    series: serve.queue_depth\n"
                               "    windows: 4\n"
                               "expect:\n"
                               "  - metric: serve.completed\n"
                               "    min: 1\n"
                               "    max: 100000\n"
                               "  - slo: fired\n"
                               "    rule: hot\n"
                               "stages:\n"
                               "  - stage: serve\n"
                               "    arrival:\n"
                               "      shape: flash-crowd\n"
                               "  - stage: experiment\n"
                               "    faults:\n"
                               "      dropouts: 0.1\n"
                               "  - stage: attack\n"
                               "    kind: dos\n"
                               "  - stage: attack\n"
                               "    kind: coresidency\n"
                               "  - stage: fleet\n"
                               "  - stage: armsrace\n"
                               "  - stage: detect\n"
                               "  - stage: include\n"
                               "    path: leaf_child.scn\n";
    Scenario s;
    std::string err;
    ASSERT_TRUE(scenario::compileText(source, dir + "/leaf.scn", &s,
                                      &err))
        << err;
    std::string dumped = s.dump();
    for (const scenario::KeyDoc& key : scenario::schemaKeys()) {
        std::string path = key.path;
        // Leaf key name: "stages[].faults.arrivals" -> "arrivals".
        std::string leaf = path.substr(path.rfind('.') + 1);
        EXPECT_NE(dumped.find(leaf + ":"), std::string::npos)
            << "dump() never emits schema key '" << path << "'";
    }
}

// ------------------------------------------------------------- defaults

TEST(ScenarioSchema, StageSeedsDeriveFromScenarioSeed)
{
    const char* source = "scenario: seeds\n"
                         "seed: 5\n"
                         "stages:\n"
                         "  - stage: serve\n"
                         "  - stage: serve\n"
                         "  - stage: serve\n"
                         "    seed: 123\n";
    Scenario s;
    std::string err;
    ASSERT_TRUE(scenario::compileText(source, "seeds.scn", &s, &err))
        << err;
    EXPECT_EQ(s.stages[0].seed, 0u); // 0 = derive at run time.
    EXPECT_EQ(s.stages[2].seed, 123u);

    // Different scenario seeds must produce different run output for
    // derived stages (checked cheaply via the graph digest, which folds
    // the seed).
    Scenario other = s;
    other.seed = 6;
    EXPECT_NE(s.graphDigest(), other.graphDigest());
}

TEST(ScenarioSchema, StageDefaultsAreLayerDefaults)
{
    // A stage compiled with no keys runs its layer's default config,
    // but for the overrides its initializer states. The dump writes
    // every key-bound member, so equal dumps check each of them.
    const std::pair<const char*, std::vector<std::string>> kKinds[] = {
        {"experiment", {}},
        {"serve", {}},
        {"attack", {"--kind", "dos"}},
        {"attack", {"--kind", "coresidency"}},
        {"fleet", {}},
        {"armsrace", {}},
    };
    for (const auto& [kind, flags] : kKinds) {
        Scenario compiled;
        std::string err;
        ASSERT_TRUE(scenario::compileFlags(kind, flags, &compiled, &err))
            << kind << ": " << err;
        Scenario layer = compiled;
        scenario::Stage& st = layer.stages[0];
        st.experiment.config = core::ExperimentConfig{};
        st.experiment.config.servers = 8;
        st.experiment.config.victims = 20;
        st.serve.config = serve::ServeConfig{};
        st.serve.config.load.requests = 1000;
        st.attack.dos = attacks::DosTimelineConfig{};
        st.attack.coresidency = attacks::CoResidencyConfig{};
        st.fleet = sim::FleetConfig{};
        st.armsrace = colo::TournamentConfig{};
        st.armsrace.utilLevels = {50.0};
        st.armsrace.attackers = {colo::AttackerKind::Churn};
        st.armsrace.policies = {colo::PolicyKind::LeastLoaded};
        EXPECT_EQ(compiled.dump(), layer.dump()) << kind;
    }
}

// ---------------------------------------------------------- flag front end

/** Compile flags expecting failure; returns the diagnostic. */
std::string
flagsError(const std::string& kind, const std::vector<std::string>& flags)
{
    Scenario s;
    std::string err;
    EXPECT_FALSE(scenario::compileFlags(kind, flags, &s, &err)) << kind;
    return err;
}

TEST(ScenarioFlags, EveryStageKindDumpsRecompilesAndRunsIdentically)
{
    std::string child = ::testing::TempDir() + "/flags_child.scn";
    writeFile(child, "scenario: child\n"
                     "stages:\n"
                     "  - stage: attack\n"
                     "    kind: coresidency\n"
                     "    probes: 2\n"
                     "    waves: 1\n");
    const std::pair<const char*, std::vector<std::string>> kCommands[] = {
        {"experiment",
         {"--servers", "2", "--victims", "3", "--seed", "5",
          "--faults.dropouts", "0.1"}},
        {"serve",
         {"--requests", "60", "--qps", "500", "--arrival.shape",
          "flash-crowd", "--arrival.segments", "2"}},
        {"attack", {"--kind", "dos", "--duration-sec", "30"}},
        {"attack", {"--kind", "coresidency", "--probes", "3", "--waves", "2"}},
        {"fleet",
         {"--hosts", "16", "--tenants", "32", "--epochs", "2", "--shards",
          "2"}},
        {"armsrace",
         {"--servers", "8", "--reps", "1", "--probes", "2", "--waves", "1"}},
        {"detect", {"--family", "cassandra", "--seed", "7"}},
        {"include", {"--path", child}},
    };
    for (const auto& [kind, flags] : kCommands) {
        Scenario first;
        std::string err;
        ASSERT_TRUE(scenario::compileFlags(kind, flags, &first, &err))
            << kind << ": " << err;
        EXPECT_EQ(first.name, kind);
        ASSERT_EQ(first.stages.size(), 1u);
        std::string dumped = first.dump();
        Scenario second;
        ASSERT_TRUE(
            scenario::compileText(dumped, "dumped.scn", &second, &err))
            << kind << ": " << err << "\ndump was:\n"
            << dumped;
        EXPECT_EQ(first.graphDigest(), second.graphDigest()) << kind;
        EXPECT_EQ(dumped, second.dump()) << kind;

        std::ostringstream out_flags, out_dump;
        auto a = scenario::runScenario(first, out_flags);
        auto b = scenario::runScenario(second, out_dump);
        EXPECT_EQ(a.digest, b.digest) << kind;
        EXPECT_EQ(out_flags.str(), out_dump.str()) << kind;
    }
}

TEST(ScenarioFlags, DottedKeysAndSeedMapOntoTheStage)
{
    Scenario s;
    std::string err;
    ASSERT_TRUE(scenario::compileFlags(
        "experiment",
        {"--seed", "1", "--faults.arrivals", "0.25", "--faults.departures",
         "0.1", "--faults.phase-flips", "0.3", "--faults.dropouts", "0.05",
         "--faults.spikes", "0.02", "--faults.spike-mag", "50",
         "--faults.jitter", "0.08", "--faults.jitter-window", "15",
         "--faults.seed", "99"},
        &s, &err))
        << err;
    EXPECT_EQ(s.seed, 1u);
    EXPECT_EQ(s.stages[0].seed, 1u);
    const scenario::ExperimentStage& e = s.stages[0].experiment;
    ASSERT_TRUE(e.hasFaults);
    const fault::FaultPlan& f = e.config.faults;
    EXPECT_EQ(f.arrivalProb, 0.25);
    EXPECT_EQ(f.departureProb, 0.1);
    EXPECT_EQ(f.phaseFlipProb, 0.3);
    EXPECT_EQ(f.dropoutProb, 0.05);
    EXPECT_EQ(f.spikeProb, 0.02);
    EXPECT_EQ(f.spikeMagnitude, 50.0);
    EXPECT_EQ(f.capacityJitterAmp, 0.08);
    EXPECT_EQ(f.capacityJitterWindowSec, 15.0);
    EXPECT_EQ(f.seed, 99u);
    // Schema defaults, not the old per-command ones.
    EXPECT_EQ(e.config.servers, 8u);
    EXPECT_EQ(e.config.victims, 20u);
}

TEST(ScenarioFlags, RejectsWhatTheOldFrontEndSilentlyRan)
{
    // Each of these exited 0 and ran a default (or out-of-schema)
    // configuration before the CLI compiled through the schema.
    EXPECT_EQ(flagsError("experiment", {"--isolation", "bogus"}),
              "--isolation: value 'bogus' for 'isolation' must be one of "
              "none, pinning, net, mem, cache, core-full, core-only");
    EXPECT_EQ(flagsError("experiment", {"--platform", "nope"}),
              "--platform: value 'nope' for 'platform' must be one of "
              "baremetal, container, vm");
    EXPECT_EQ(flagsError("experiment", {"--obfuscation", "50"}),
              "--obfuscation: value 50 for 'obfuscation' out of range [0, 1]");
    EXPECT_EQ(flagsError("experiment", {"--faults.spikes", "0.1",
                                        "--faults.spike-mag", "500"}),
              "--faults.spike-mag: value 500 for 'spike-mag' out of range "
              "[0, 100]");
    EXPECT_EQ(flagsError("experiment", {"--faults.seed", "7"}),
              "--faults.seed: faults block enables no fault rate (set one of: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "jitter)");
    EXPECT_EQ(flagsError("serve", {"--requests", "10x"}),
              "--requests: value '10x' for 'requests' is not an integer");
    EXPECT_EQ(flagsError("experiment", {"--serveurs", "9"}),
              "--serveurs: unknown key 'serveurs' in experiment stage "
              "(valid: stage, name, seed, servers, victims, policy, "
              "platform, isolation, obfuscation, faults)");
    EXPECT_EQ(flagsError("armsrace", {"--util-levels", "40,60"}),
              "--util-levels: unknown key 'util-levels' in armsrace stage "
              "(valid: stage, name, seed, allocator, attacker, servers, "
              "probes, waves, reps, utilization)");
    EXPECT_EQ(flagsError("armsrace", {"--utilization", "200"}),
              "--utilization: value 200 for 'utilization' out of range "
              "[5, 90]");
    EXPECT_EQ(flagsError("armsrace", {"--utilization", "40,x"}),
              "--utilization: value '40,x' for 'utilization' is not a "
              "number");
    EXPECT_EQ(flagsError("armsrace", {"--servers", "10x"}),
              "--servers: value '10x' for 'servers' is not an integer");
    EXPECT_EQ(flagsError("armsrace", {"--reps", "99999"}),
              "--reps: value 99999 for 'reps' out of range [1, 64]");
    EXPECT_EQ(flagsError("fleet", {"--hosts", "10x"}),
              "--hosts: value '10x' for 'hosts' is not an integer");
    EXPECT_EQ(flagsError("fleet", {"--shards", "99999"}),
              "--shards: value 99999 for 'shards' out of range [1, 4096]");
    EXPECT_EQ(flagsError("attack", {}),
              "attack: missing required key 'kind' in attack stage");
    // Flag-shape errors name the offending flag.
    EXPECT_EQ(flagsError("fleet", {"--hosts"}),
              "--hosts: flag '--hosts' requires a value");
    EXPECT_EQ(flagsError("fleet", {"--hosts", "4", "8"}),
              "fleet: unexpected argument '8' (flags are --key value)");
    // Values the text format cannot hold would break the dump round trip.
    for (const char* value : {"", "x #y", "x ", "a\nb: c"}) {
        EXPECT_EQ(flagsError("fleet", {"--name", value}),
                  std::string("--name: value '") + value +
                      "' for '--name' cannot be written in a scenario "
                      "file");
    }
    for (const std::vector<std::string>& bad :
         {std::vector<std::string>{"--hosts", "4", "--hosts", "8"},
          std::vector<std::string>{"--stage", "serve"},
          std::vector<std::string>{"--faults.", "1"}}) {
        EXPECT_NE(flagsError(bad[0] == "--faults." ? "experiment" : "fleet",
                             bad)
                      .find("is malformed, repeated or conflicts"),
                  std::string::npos)
            << bad[0];
    }
}

// Fault flags: bolt_cli's --faults.<key> flags compile through the same
// faults block as a scenario file. Unknown keys and out-of-range values
// fail with a message, and a set of pure modifiers (seed, spike-mag)
// with no fault rate enabled is rejected — it would silently run an
// unfaulted experiment.

TEST(FaultFlags, RejectsUnknownKeyWithValidList)
{
    // The message lists the valid keys so the typo is self-correcting.
    EXPECT_EQ(flagsError("experiment", {"--faults.dropout", "0.1"}),
              "--faults.dropout: unknown key 'dropout' in faults block (valid: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "spike-mag, jitter, jitter-window, seed)");
}

TEST(FaultFlags, RejectsOutOfRangeValues)
{
    const std::pair<std::vector<std::string>, const char*> kBad[] = {
        {{"--faults.arrivals", "1.5"},
         "--faults.arrivals: value 1.5 for 'arrivals' out of range [0, 1]"},
        {{"--faults.dropouts", "-0.1"},
         "--faults.dropouts: value -0.1 for 'dropouts' out of range [0, 1]"},
        {{"--faults.dropouts", "nope"},
         "--faults.dropouts: value 'nope' for 'dropouts' is not a number"},
        {{"--faults.jitter", "1.0"},
         "--faults.jitter: value 1 for 'jitter' out of range [0, 1)"},
        {{"--faults.phase-flips", "0.1", "--faults.jitter-window", "0"},
         "--faults.jitter-window: value 0 for 'jitter-window' out of range "
         "[0.001, 3600]"},
        {{"--faults.phase-flips", "0.1", "--faults.seed", "-3"},
         "--faults.seed: value '-3' for 'seed' is not an unsigned integer"},
    };
    for (const auto& [flags, message] : kBad)
        EXPECT_EQ(flagsError("experiment", flags), message) << flags[0];
}

TEST(FaultFlags, ModifierOnlyPlanIsRejected)
{
    // --faults.seed / --faults.spike-mag alone enable nothing: the
    // strict CLI treats that as an error (exit 2), not a silent no-op.
    EXPECT_EQ(flagsError("experiment", {"--faults.seed", "7",
                                        "--faults.spike-mag", "60"}),
              "--faults.seed: faults block enables no fault rate (set one of: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "jitter)");
    // With no --faults.* flag at all the stage simply has no plan.
    Scenario s;
    std::string err;
    ASSERT_TRUE(scenario::compileFlags("experiment", {}, &s, &err)) << err;
    EXPECT_FALSE(s.stages[0].experiment.hasFaults);
}

/**
 * One name table through the flag front end: every key compiles to its
 * enumerator and back, and a bogus name fails with the full valid list.
 */
template <typename E, size_t N, typename Field>
void
expectNameTable(const util::EnumKey<E> (&table)[N], const char* kind,
                std::vector<std::string> base, const std::string& flag,
                Field field, const std::string& bogus_error)
{
    for (const util::EnumKey<E>& row : table) {
        E back{};
        ASSERT_TRUE(util::enumFromKey(table, row.key, &back)) << row.key;
        EXPECT_EQ(back, row.value);
        EXPECT_STREQ(util::enumKey(table, row.value), row.key);
        std::vector<std::string> flags = base;
        flags.insert(flags.end(), {"--" + flag, row.key});
        Scenario s;
        std::string err;
        ASSERT_TRUE(scenario::compileFlags(kind, flags, &s, &err))
            << row.key << ": " << err;
        EXPECT_EQ(field(s.stages[0]), row.value) << row.key;
    }
    base.insert(base.end(), {"--" + flag, "bogus"});
    EXPECT_EQ(flagsError(kind, base), bogus_error);
}

TEST(NameTables, Platform)
{
    expectNameTable(
        sim::kPlatformKeys, "experiment", {}, "platform",
        [](const scenario::Stage& st) { return st.experiment.platform; },
        "--platform: value 'bogus' for 'platform' must be one of baremetal, "
        "container, vm");
}

TEST(NameTables, Isolation)
{
    expectNameTable(
        sim::kIsolationKeys, "experiment", {}, "isolation",
        [](const scenario::Stage& st) { return st.experiment.isolation; },
        "--isolation: value 'bogus' for 'isolation' must be one of none, "
        "pinning, net, mem, cache, core-full, core-only");
    // Each rung builds the ladder config its factory builds.
    using sim::IsolationConfig;
    using sim::IsolationLevel;
    auto same = [](const IsolationConfig& a, const IsolationConfig& b) {
        return a.platform == b.platform &&
               a.threadPinning == b.threadPinning &&
               a.netBwPartitioning == b.netBwPartitioning &&
               a.memBwPartitioning == b.memBwPartitioning &&
               a.cachePartitioning == b.cachePartitioning &&
               a.coreIsolation == b.coreIsolation;
    };
    auto p = sim::Platform::Container;
    EXPECT_TRUE(same(IsolationConfig::forLevel(IsolationLevel::Cache, p),
                     IsolationConfig::withCachePartitioning(p)));
    EXPECT_TRUE(
        same(IsolationConfig::forLevel(IsolationLevel::CoreOnly, p),
             IsolationConfig::coreIsolationOnly(p)));
    EXPECT_TRUE(same(IsolationConfig::forLevel(IsolationLevel::None, p),
                     IsolationConfig::none(p)));
}

TEST(NameTables, Policy)
{
    expectNameTable(
        core::kPolicyKeys, "experiment", {}, "policy",
        [](const scenario::Stage& st) { return st.experiment.config.policy; },
        "--policy: value 'bogus' for 'policy' must be one of least-loaded, "
        "quasar");
}

TEST(NameTables, Allocator)
{
    expectNameTable(
        colo::kPolicyKindKeys, "armsrace", {}, "allocator",
        [](const scenario::Stage& st) { return st.armsrace.policies.front(); },
        "--allocator: value 'bogus' for 'allocator' must be one of "
        "least-loaded, quasar, random, mab, secure");
    // The key and the display label are separate columns.
    EXPECT_STREQ(colo::policyName(colo::PolicyKind::Secure), "secure-opt");
}

TEST(NameTables, Attacker)
{
    expectNameTable(
        colo::kAttackerKeys, "armsrace", {}, "attacker",
        [](const scenario::Stage& st) { return st.armsrace.attackers.front(); },
        "--attacker: value 'bogus' for 'attacker' must be one of "
        "replication, affinity, churn");
}

TEST(NameTables, AttackKind)
{
    expectNameTable(
        scenario::kAttackKindKeys, "attack", {}, "kind",
        [](const scenario::Stage& st) { return st.attack.kind; },
        "--kind: value 'bogus' for 'kind' must be one of dos, "
        "coresidency");
}

TEST(NameTables, Loop)
{
    expectNameTable(
        scenario::kLoopKeys, "serve", {}, "loop",
        [](const scenario::Stage& st) {
            return st.serve.config.load.closedLoop;
        },
        "--loop: value 'bogus' for 'loop' must be one of open, closed");
}

TEST(NameTables, ArrivalShape)
{
    expectNameTable(
        scenario::kArrivalShapeKeys, "serve", {"--loop", "open"},
        "arrival.shape",
        [](const scenario::Stage& st) { return st.serve.shape; },
        "--arrival.shape: value 'bogus' for 'shape' must be one of steady, "
        "flash-crowd, diurnal");
}

TEST(NameTables, StageKind)
{
    // The stage kind is the subcommand itself.
    for (const auto& row : scenario::kStageKindKeys) {
        std::vector<std::string> flags;
        if (row.value == scenario::StageKind::Attack)
            flags = {"--kind", "dos"};
        if (row.value == scenario::StageKind::Include)
            flags = {"--path", repoPath("scenarios/dos_blitz.scn")};
        Scenario s;
        std::string err;
        ASSERT_TRUE(scenario::compileFlags(row.key, flags, &s, &err))
            << row.key << ": " << err;
        EXPECT_EQ(s.stages[0].kind, row.value);
        EXPECT_STREQ(util::enumKey(scenario::kStageKindKeys, row.value),
                     row.key);
    }
    EXPECT_EQ(flagsError("bogus", {}),
              "bogus: value 'bogus' for 'stage' must be one of "
              "experiment, serve, attack, include, fleet, armsrace, detect");
}

// ---------------------------------------------------------------- fuzz
//
// Seeded round-trip fuzzing of the compiler. The generator draws keys,
// types, ranges and enum names from schemaKeys() and asks the compiler
// which keys each block accepts (the valid list of its unknown-key
// diagnostic), so a new key is fuzzed without touching this file.

/** Deterministic draws (std distributions differ between libraries). */
struct FuzzRng
{
    std::mt19937_64 gen;
    uint64_t next() { return gen(); }
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }
    bool coin() { return next() & 1; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    template <typename T>
    const T&
    pick(const std::vector<T>& v)
    {
        return v[below(v.size())];
    }
};

/** "a | b | c" -> {"a", "b", "c"}. */
std::vector<std::string>
splitList(const std::string& text, const std::string& sep)
{
    std::vector<std::string> parts;
    for (size_t at = 0;;) {
        size_t next = text.find(sep, at);
        parts.push_back(text.substr(at, next - at));
        if (next == std::string::npos)
            return parts;
        at = next + sep.size();
    }
}

/**
 * The keys `block` accepts, in claim order: `block` is scenario text
 * with "zzz-probe: 1" at the position of the block's first key.
 */
std::vector<std::string>
acceptedKeys(const std::string& block)
{
    std::string err = compileError(block);
    size_t at = err.find("(valid: ");
    EXPECT_NE(at, std::string::npos) << err;
    if (at == std::string::npos)
        return {};
    at += 8;
    return splitList(err.substr(at, err.size() - at - 1), ", ");
}

/** Writes random valid scenarios drawn from schemaKeys(). */
class ScenarioGen
{
  public:
    ScenarioGen(uint64_t seed, std::string child) : child_(std::move(child))
    {
        rng_.gen.seed(seed);
        for (size_t i = 0; i < obs::kNumCounters; ++i)
            counters_.push_back(
                obs::metricInfo(static_cast<obs::MetricId>(i)).name);
        for (size_t i = 0; i < obs::kNumSeries; ++i)
            series_.push_back(
                obs::seriesInfo(static_cast<obs::SeriesId>(i)).name);
        for (const workloads::FamilyDef& f : workloads::catalog())
            families_.push_back(f.name);
    }

    std::string
    scenario()
    {
        rules_.clear();
        std::string out;
        // Top level, minus the lists drawn below.
        for (const std::string& key : keys("scenario: x\nzzz-probe: 1\n")) {
            if (key == "slo" || key == "expect" || key == "stages")
                continue;
            if (key == "scenario")
                out += "scenario: " + token() + "\n";
            else if (rng_.coin())
                out += key + ": " + value(key) + "\n";
        }
        if (rng_.coin()) {
            out += "slo:\n";
            for (size_t n = 1 + rng_.below(3); n--;)
                out += sloRule();
        }
        if (rng_.coin()) {
            out += "expect:\n";
            for (size_t n = 1 + rng_.below(3); n--;)
                out += expectItem();
        }
        out += "stages:\n";
        for (size_t n = 1 + rng_.below(4); n--;)
            out += stage();
        return out;
    }

  private:
    /** Cached acceptedKeys(). */
    const std::vector<std::string>&
    keys(const std::string& block)
    {
        auto it = accepted_.find(block);
        if (it == accepted_.end())
            it = accepted_.emplace(block, acceptedKeys(block)).first;
        return it->second;
    }

    const scenario::KeyDoc&
    row(const std::string& path)
    {
        for (const scenario::KeyDoc& key : scenario::schemaKeys())
            if (key.path == path)
                return key;
        ADD_FAILURE() << "no schemaKeys() row for accepted key " << path;
        return scenario::schemaKeys().front();
    }

    std::string
    token()
    {
        std::string t = "t";
        for (size_t n = rng_.below(8); n--;)
            t += "abz09-_."[rng_.below(8)];
        return t;
    }

    /** An in-range value for schema row `path`. */
    std::string
    value(const std::string& path)
    {
        const scenario::KeyDoc& r = row(path);
        std::string type = r.type;
        if (type == "enum" || type == "bool")
            return rng_.pick(splitList(r.range, " | "));
        if (type == "string")
            return token();
        if (type == "uint")
            return std::to_string(rng_.coin() ? rng_.below(100)
                                              : rng_.next());
        std::vector<std::string> bounds =
            splitList(r.range.substr(1, r.range.size() - 2), ", ");
        double lo = std::stod(bounds.at(0));
        double hi = std::stod(bounds.at(1));
        if (type == "int")
            return std::to_string(static_cast<long long>(lo) +
                                  static_cast<long long>(rng_.below(
                                      static_cast<size_t>(
                                          std::min(hi - lo, 1e6)) +
                                      1)));
        if (r.range.back() == ')')
            hi = std::nextafter(hi, lo);
        double v = rng_.coin() ? lo + (hi - lo) * rng_.unit()
                               : std::min(hi, lo + rng_.below(100));
        return util::fmtDouble(std::clamp(v, lo, hi));
    }

    /** Random optional keys of one block; `pad` indents each line. */
    std::string
    keysOf(const std::vector<std::string>& accepted,
           const std::string& prefix, const std::string& pad,
           const std::vector<std::string>& skip)
    {
        std::string out;
        for (const std::string& key : accepted) {
            if (std::count(skip.begin(), skip.end(), key) ||
                !rng_.coin())
                continue;
            const scenario::KeyDoc& r = row(prefix + key);
            if (std::string(r.type) == "map" ||
                std::string(r.type) == "list")
                continue;
            out += pad + key + ": " + value(prefix + key) + "\n";
        }
        return out;
    }

    std::string
    sloRule()
    {
        std::string kind = rng_.pick(splitList(row("slo[].kind").range,
                                               " | "));
        std::string name = "r";
        name += std::to_string(rules_.size());
        rules_.push_back(name);
        std::string out = "  - rule: " + name + "\n    kind: " + kind +
                          "\n    series: " + rng_.pick(series_) + "\n";
        if (kind == "burn-rate")
            out += "    total-series: " + rng_.pick(series_) + "\n";
        const std::vector<std::string>& accepted =
            keys("scenario: x\nslo:\n" + out +
                 "    zzz-probe: 1\nstages:\n  - stage: fleet\n");
        return out + keysOf(accepted, "slo[].", "    ",
                            {"rule", "kind", "series", "total-series"});
    }

    std::string
    expectItem()
    {
        if (rng_.coin()) {
            std::string out = "  - metric: " + rng_.pick(counters_) + "\n";
            uint64_t a = rng_.below(1000), b = rng_.below(1000);
            bool both = rng_.coin(), min = both || rng_.coin();
            if (min)
                out += "    min: " + std::to_string(std::min(a, b)) + "\n";
            if (both || !min)
                out += "    max: " + std::to_string(std::max(a, b)) + "\n";
            return out;
        }
        std::vector<std::string> checks =
            splitList(row("expect[].slo").range, " | ");
        std::string check = rules_.empty() ? checks.front()
                                           : rng_.pick(checks);
        std::string out = "  - slo: " + check + "\n";
        if (check != checks.front())
            out += "    rule: " + rng_.pick(rules_) + "\n";
        return out;
    }

    std::string
    stage()
    {
        std::string kind =
            rng_.pick(splitList(row("stages[].stage").range, " | "));
        std::string head = "  - stage: " + kind + "\n";
        std::vector<std::string> fixed = {"stage"};
        if (kind == "attack") {
            head += "    kind: " +
                    rng_.pick(splitList(row("stages[].kind").range, " | ")) +
                    "\n";
            fixed.push_back("kind");
        }
        if (kind == "include") {
            head += "    path: " + child_ + "\n";
            fixed.push_back("path");
        }
        if (kind == "detect") {
            head += "    family: " + rng_.pick(families_) + "\n";
            fixed.push_back("family");
        }
        std::string probe = "scenario: x\nstages:\n" + head;
        const std::vector<std::string>& accepted =
            keys(probe + "    zzz-probe: 1\n");
        std::string out = head + keysOf(accepted, "stages[].", "    ", fixed);
        for (std::string block : {"faults", "arrival"}) {
            if (!std::count(accepted.begin(), accepted.end(), block) ||
                !rng_.coin())
                continue;
            std::string prefix = "stages[]." + block + ".";
            // Cross-field rules: a faults block enables a rate, and a
            // non-steady arrival shape needs an open loop.
            std::string body = keysOf(
                keys(probe + "    " + block + ":\n      zzz-probe: 1\n"),
                prefix, "      ", {"dropouts", "shape"});
            if (block == "faults")
                body += "      dropouts: " +
                        util::fmtDouble(0.01 + 0.99 * rng_.unit()) + "\n";
            else if (out.find("loop: closed") == std::string::npos)
                body += "      shape: " + value(prefix + "shape") + "\n";
            if (!body.empty())
                out += "    " + block + ":\n" + body;
        }
        return out;
    }

    FuzzRng rng_;
    std::string child_;
    std::vector<std::string> counters_, series_, rules_, families_;
    std::map<std::string, std::vector<std::string>> accepted_;
};

TEST(ScenarioFuzz, RandomValidScenariosRoundTrip)
{
    std::string dir = ::testing::TempDir();
    writeFile(dir + "/fuzz_child.scn", "scenario: child\n"
                                       "stages:\n"
                                       "  - stage: fleet\n");
    ScenarioGen gen(20170408, "fuzz_child.scn");
    for (int i = 0; i < 400; ++i) {
        std::string source = gen.scenario();
        Scenario first;
        std::string err;
        ASSERT_TRUE(scenario::compileText(source, dir + "/fuzz.scn",
                                          &first, &err))
            << err << "\nsource:\n"
            << source;
        std::string dumped = first.dump();
        Scenario second;
        ASSERT_TRUE(scenario::compileText(dumped, dir + "/fuzz.scn",
                                          &second, &err))
            << err << "\ndump:\n"
            << dumped;
        ASSERT_EQ(first.graphDigest(), second.graphDigest())
            << "source:\n" << source << "dump:\n" << dumped;
        ASSERT_EQ(dumped, second.dump()) << "source:\n" << source;
    }
}

/**
 * Either compiles (and then round-trips through its dump) or fails with
 * a "<where>: <message>" diagnostic.
 */
void
expectCompilesOrDiagnoses(bool ok, const Scenario& s, const std::string& err,
                          const std::string& dir, const std::string& input)
{
    if (!ok) {
        EXPECT_NE(err.find(": "), std::string::npos)
            << "no diagnostic for:\n" << input;
        return;
    }
    Scenario again;
    std::string again_err;
    ASSERT_TRUE(scenario::compileText(s.dump(), dir + "/rt.scn", &again,
                                      &again_err))
        << again_err << "\ninput:\n" << input;
    EXPECT_EQ(s.graphDigest(), again.graphDigest()) << input;
}

TEST(ScenarioFuzz, MutatedShippedScenariosNeverCrash)
{
    FuzzRng rng;
    rng.gen.seed(42);
    const std::string chars = "ab0-_.: #\t\n\\|\"'9ez";
    const std::vector<std::string> shipped = shippedScenarios();
    for (int i = 0; i < 3000; ++i) {
        std::string text =
            readFile(repoPath("scenarios/" + rng.pick(shipped) + ".scn"));
        for (size_t n = 1 + rng.below(4); n--;) {
            char c = chars[rng.below(chars.size())];
            size_t op = text.empty() ? 2 : rng.below(6);
            size_t at = text.empty() ? 0 : rng.below(text.size());
            if (op == 0) {
                text[at] = c;
            } else if (op == 1) {
                text.erase(at, 1);
            } else if (op == 2) {
                text.insert(at, 1, c);
            } else {
                // Line edits: drop, duplicate or indent one line.
                std::vector<std::string> lines = splitList(text, "\n");
                size_t line = rng.below(lines.size());
                if (op == 3)
                    lines.erase(lines.begin() + line);
                else if (op == 4)
                    lines.insert(lines.begin() + line, rng.pick(lines));
                else
                    lines[line].insert(0, rng.coin() ? "  " : " ");
                text.clear();
                for (size_t k = 0; k < lines.size(); ++k)
                    text += (k ? "\n" : "") + lines[k];
            }
        }
        Scenario s;
        std::string err;
        // Compile beside the shipped files so includes still resolve.
        bool ok = scenario::compileText(
            text, repoPath("scenarios/fuzz.scn"), &s, &err);
        expectCompilesOrDiagnoses(ok, s, err, repoPath("scenarios"), text);
    }
}

TEST(ScenarioFuzz, RandomFlagListsNeverCrash)
{
    FuzzRng rng;
    rng.gen.seed(7);
    std::vector<std::string> kinds, flags;
    std::vector<std::string> values = {"0",     "1",    "-1",     "0.5",
                                       "x",     "1e999", "true",  "dos",
                                       "closed", "diurnal", ""};
    for (const scenario::KeyDoc& key : scenario::schemaKeys()) {
        std::string path = key.path;
        if (path == "stages[].stage")
            kinds = splitList(key.range, " | ");
        if (path.rfind("stages[].", 0) != 0)
            continue;
        flags.push_back("--" + path.substr(9));
        for (const std::string& v : splitList(key.range, " | "))
            values.push_back(v);
    }
    kinds.push_back("bogus");
    flags.insert(flags.end(), {"--", "--.x", "--faults.", "-x", "bare"});
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::string> args;
        for (size_t n = rng.below(7); n--;)
            args.push_back(rng.coin() ? rng.pick(flags) : rng.pick(values));
        std::string kind = rng.pick(kinds);
        std::string input = kind;
        for (const std::string& a : args)
            input += " '" + a + "'";
        Scenario s;
        std::string err;
        bool ok = scenario::compileFlags(kind, args, &s, &err);
        expectCompilesOrDiagnoses(ok, s, err, ".", input);
    }
}

} // namespace
