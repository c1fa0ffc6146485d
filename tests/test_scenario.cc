/**
 * @file
 * Scenario-layer tests (tier1, fast — no experiments run here):
 *
 *  - text parser shape and strictness (line-numbered error goldens)
 *  - compiler validation messages for malformed files, including the
 *    cyclic-include and modifier-only-faults cases
 *  - compile -> dump -> recompile graph identity for synthetic and
 *    every shipped scenario
 *  - schema/documentation sync: the key table embedded in
 *    docs/SCENARIOS.md must list exactly the keys schemaKeys() accepts,
 *    and dump() must emit every leaf key (so the table, the compiler
 *    and the doc cannot drift apart)
 *  - bolt_cli's flag front end (compileFlags): every stage kind
 *    compiled from flags dumps, recompiles and runs (at toy sizes) to
 *    the same graph and run digests, and every enum name table
 *    round-trips and rejects a bogus name with the full valid list
 */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "scenario/text.h"

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

const char* kShipped[] = {
    "adversary_sweep", "armsrace_duel",  "cloaked_victims",
    "closed_loop_soak", "coresidency_hunt", "diurnal",
    "dos_blitz",       "dropout_heavy",  "flash_crowd",
    "grand_tour",      "migration_storm", "noisy_neighbor",
    "quasar_showdown",
};

std::string
repoPath(const std::string& rel)
{
    return std::string(BOLT_REPO_DIR) + "/" + rel;
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
    EXPECT_EQ(s.stages[0].serve.requests, 1000);
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
              "experiment, serve, attack, include, fleet, armsrace");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - name: no-discriminator\n"),
              "bad.scn:3: each stages[] item must begin with "
              "'- stage: experiment|serve|attack|include|fleet"
              "|armsrace'");
    EXPECT_EQ(compileError("scenario: x\n"
                           "stages:\n"
                           "  - stage: attack\n"),
              "bad.scn:3: missing required key 'kind' in attack stage");
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
              "bad.scn:4: unknown telemetry series 'not.a.series' for "
              "'series'");
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

TEST(ScenarioRoundTrip, EveryShippedScenario)
{
    for (const char* name : kShipped) {
        std::string path =
            repoPath("scenarios/" + std::string(name) + ".scn");
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
    std::set<std::string> documented;
    // Key-table rows look like "| `stages[].servers` | int | ... |".
    std::stringstream lines(doc.substr(begin, end - begin));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("| `", 0) != 0)
            continue;
        size_t end = line.find('`', 3);
        if (end == std::string::npos)
            continue;
        documented.insert(line.substr(3, end - 3));
    }
    std::set<std::string> accepted;
    for (const scenario::KeyDoc& key : scenario::schemaKeys())
        accepted.insert(key.path);
    ASSERT_FALSE(accepted.empty());
    for (const std::string& key : accepted)
        EXPECT_TRUE(documented.count(key))
            << "schema key '" << key
            << "' is missing from docs/SCENARIOS.md";
    for (const std::string& key : documented)
        EXPECT_TRUE(accepted.count(key))
            << "docs/SCENARIOS.md documents '" << key
            << "' but schemaKeys() does not accept it";
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
    EXPECT_EQ(e.faults.arrivalProb, 0.25);
    EXPECT_EQ(e.faults.departureProb, 0.1);
    EXPECT_EQ(e.faults.phaseFlipProb, 0.3);
    EXPECT_EQ(e.faults.dropoutProb, 0.05);
    EXPECT_EQ(e.faults.spikeProb, 0.02);
    EXPECT_EQ(e.faults.spikeMagnitude, 50.0);
    EXPECT_EQ(e.faults.capacityJitterAmp, 0.08);
    EXPECT_EQ(e.faults.capacityJitterWindowSec, 15.0);
    EXPECT_EQ(e.faults.seed, 99u);
    // Schema defaults, not the old per-command ones.
    EXPECT_EQ(e.servers, 8);
    EXPECT_EQ(e.victims, 20);
}

TEST(ScenarioFlags, RejectsWhatTheOldFrontEndSilentlyRan)
{
    // Each of these exited 0 and ran a default (or out-of-schema)
    // configuration before the CLI compiled through the schema.
    EXPECT_EQ(flagsError("experiment", {"--isolation", "bogus"}),
              "flags:1: value 'bogus' for 'isolation' must be one of "
              "none, pinning, net, mem, cache, core-full, core-only");
    EXPECT_EQ(flagsError("experiment", {"--platform", "nope"}),
              "flags:1: value 'nope' for 'platform' must be one of "
              "baremetal, container, vm");
    EXPECT_EQ(flagsError("experiment", {"--obfuscation", "50"}),
              "flags:1: value 50 for 'obfuscation' out of range [0, 1]");
    EXPECT_EQ(flagsError("experiment", {"--faults.spikes", "0.1",
                                        "--faults.spike-mag", "500"}),
              "flags:2: value 500 for 'spike-mag' out of range [0, 100]");
    EXPECT_EQ(flagsError("experiment", {"--faults.seed", "7"}),
              "flags:1: faults block enables no fault rate (set one of: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "jitter)");
    EXPECT_EQ(flagsError("serve", {"--requests", "10x"}),
              "flags:1: value '10x' for 'requests' is not an integer");
    EXPECT_EQ(flagsError("experiment", {"--serveurs", "9"}),
              "flags:1: unknown key 'serveurs' in experiment stage "
              "(valid: stage, name, seed, servers, victims, policy, "
              "platform, isolation, obfuscation, faults)");
    EXPECT_EQ(flagsError("armsrace", {"--util-levels", "40,60"}),
              "flags:1: unknown key 'util-levels' in armsrace stage "
              "(valid: stage, name, seed, allocator, attacker, servers, "
              "probes, waves, reps, utilization)");
    EXPECT_EQ(flagsError("armsrace", {"--utilization", "200"}),
              "flags:1: value 200 for 'utilization' out of range [5, 90]");
    EXPECT_EQ(flagsError("attack", {}),
              "flags:1: missing required key 'kind' in attack stage");
    // Flag-shape errors name the offending flag.
    EXPECT_EQ(flagsError("fleet", {"--hosts"}),
              "flags:1: flag '--hosts' requires a value");
    EXPECT_EQ(flagsError("fleet", {"--hosts", "4", "8"}),
              "flags:2: unexpected argument '8' (flags are --key value)");
    // Values the text format cannot hold would break the dump round trip.
    for (const char* value : {"", "x #y", "x ", "a\nb: c"}) {
        EXPECT_EQ(flagsError("fleet", {"--name", value}),
                  std::string("flags:1: value '") + value +
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
              "flags:1: unknown key 'dropout' in faults block (valid: "
              "arrivals, departures, phase-flips, dropouts, spikes, "
              "spike-mag, jitter, jitter-window, seed)");
}

TEST(FaultFlags, RejectsOutOfRangeValues)
{
    const std::pair<std::vector<std::string>, const char*> kBad[] = {
        {{"--faults.arrivals", "1.5"},
         "flags:1: value 1.5 for 'arrivals' out of range [0, 1]"},
        {{"--faults.dropouts", "-0.1"},
         "flags:1: value -0.1 for 'dropouts' out of range [0, 1]"},
        {{"--faults.dropouts", "nope"},
         "flags:1: value 'nope' for 'dropouts' is not a number"},
        {{"--faults.jitter", "1.0"},
         "flags:1: value 1 for 'jitter' out of range [0, 1)"},
        {{"--faults.phase-flips", "0.1", "--faults.jitter-window", "0"},
         "flags:2: value 0 for 'jitter-window' out of range "
         "[0.001, 3600]"},
        {{"--faults.phase-flips", "0.1", "--faults.seed", "-3"},
         "flags:2: value '-3' for 'seed' is not an unsigned integer"},
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
              "flags:1: faults block enables no fault rate (set one of: "
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
        "flags:1: value 'bogus' for 'platform' must be one of baremetal, "
        "container, vm");
}

TEST(NameTables, Isolation)
{
    expectNameTable(
        sim::kIsolationKeys, "experiment", {}, "isolation",
        [](const scenario::Stage& st) { return st.experiment.isolation; },
        "flags:1: value 'bogus' for 'isolation' must be one of none, "
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
        [](const scenario::Stage& st) { return st.experiment.policy; },
        "flags:1: value 'bogus' for 'policy' must be one of least-loaded, "
        "quasar");
}

TEST(NameTables, Allocator)
{
    expectNameTable(
        colo::kPolicyKindKeys, "armsrace", {}, "allocator",
        [](const scenario::Stage& st) { return st.armsrace.allocator; },
        "flags:1: value 'bogus' for 'allocator' must be one of "
        "least-loaded, quasar, random, mab, secure");
    // The key and the display label are separate columns.
    EXPECT_STREQ(colo::policyName(colo::PolicyKind::Secure), "secure-opt");
}

TEST(NameTables, Attacker)
{
    expectNameTable(
        colo::kAttackerKeys, "armsrace", {}, "attacker",
        [](const scenario::Stage& st) { return st.armsrace.attacker; },
        "flags:1: value 'bogus' for 'attacker' must be one of "
        "replication, affinity, churn");
}

TEST(NameTables, AttackKind)
{
    expectNameTable(
        scenario::kAttackKindKeys, "attack", {}, "kind",
        [](const scenario::Stage& st) { return st.attack.kind; },
        "flags:1: value 'bogus' for 'kind' must be one of dos, "
        "coresidency");
}

TEST(NameTables, Loop)
{
    expectNameTable(
        scenario::kLoopKindKeys, "serve", {}, "loop",
        [](const scenario::Stage& st) { return st.serve.loop; },
        "flags:1: value 'bogus' for 'loop' must be one of open, closed");
}

TEST(NameTables, ArrivalShape)
{
    expectNameTable(
        scenario::kArrivalShapeKeys, "serve", {"--loop", "open"},
        "arrival.shape",
        [](const scenario::Stage& st) { return st.serve.shape; },
        "flags:2: value 'bogus' for 'shape' must be one of steady, "
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
              "flags:1: value 'bogus' for 'stage' must be one of "
              "experiment, serve, attack, include, fleet, armsrace");
}

} // namespace
