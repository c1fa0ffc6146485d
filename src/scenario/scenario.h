#ifndef BOLT_SCENARIO_SCENARIO_H
#define BOLT_SCENARIO_SCENARIO_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/coresidency.h"
#include "attacks/dos.h"
#include "colo/tournament.h"
#include "core/experiment.h"
#include "obs/monitor.h"
#include "serve/engine.h"
#include "sim/isolation.h"
#include "sim/shard.h"
#include "util/enum_keys.h"

namespace bolt {
namespace scenario {

/**
 * The declarative scenario layer: a strict YAML-ish text format
 * (text.h) compiled into a validated scenario graph that the runner
 * (runner.h) executes against the existing sim/fault/serve/attacks
 * layers. New experiments become data plus documentation instead of a
 * new C++ bench driver.
 *
 * A stage holds the config of the layer it runs (core::ExperimentConfig,
 * serve::ServeConfig, the attacks configs, sim::FleetConfig,
 * colo::TournamentConfig), and an `slo:` rule is an obs::SloRule. Each
 * key of each block (top level, slo rule, expect item, stage and its
 * nested blocks) is declared once, in a field list in scenario.cc that
 * binds it to the member of that config: key, member, range or enum
 * table, class and help. So the compiler fills the layers' configs,
 * and the runner only sets seeds and the values it derives. Compile,
 * dump() and schemaKeys() are generic walks over those lists, and
 * graphDigest() hashes the dump; only cross-field rules and include
 * resolution are explicit code. docs/SCENARIOS.md documents the schema
 * key by key, and a test compares it with schemaKeys() row by row, so
 * the two cannot drift.
 *
 * Determinism: every stage owns a counter-based seed (explicit
 * `seed:`, or derived from the scenario seed and the stage index via
 * `util::Rng::stream`), and every layer underneath already draws from
 * per-task counter-based streams — so a compiled scenario's run digest
 * is bit-identical at any thread count, and a scenario file is a
 * complete, reproducible description of a run.
 */

/**
 * The scenario vocabularies, X(Sym, "key"): what a stage does (the
 * `stage:` discriminator, which is also the bolt_cli subcommand), the
 * `kind:` of an attack stage, the `shape:` of a serve stage's arrival
 * block, and the `slo:` check of an expect item.
 */
#define BOLT_STAGE_KIND_CATALOG(X)                                             \
    X(Experiment, "experiment")                                                \
    X(Serve, "serve")                                                          \
    X(Attack, "attack")                                                        \
    X(Include, "include")                                                      \
    X(Fleet, "fleet")                                                          \
    X(Armsrace, "armsrace")                                                    \
    X(Detect, "detect")
#define BOLT_ATTACK_KIND_CATALOG(X) X(Dos, "dos") X(CoResidency, "coresidency")
#define BOLT_ARRIVAL_SHAPE_CATALOG(X)                                          \
    X(Steady, "steady") X(FlashCrowd, "flash-crowd") X(Diurnal, "diurnal")
#define BOLT_SLO_CHECK_CATALOG(X)                                              \
    X(NoAlertsFiring, "no-alerts-firing") X(Fired, "fired")                    \
        X(NotFired, "not-fired")

enum class StageKind : uint8_t { BOLT_STAGE_KIND_CATALOG(BOLT_ENUMERATOR) };
enum class AttackKind : uint8_t { BOLT_ATTACK_KIND_CATALOG(BOLT_ENUMERATOR) };
enum class ArrivalShape : uint8_t {
    BOLT_ARRIVAL_SHAPE_CATALOG(BOLT_ENUMERATOR)
};
enum class SloCheck : uint8_t { BOLT_SLO_CHECK_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_STAGE_KIND_KEY(Sym, Key) {StageKind::Sym, Key},
#define BOLT_ATTACK_KIND_KEY(Sym, Key) {AttackKind::Sym, Key},
#define BOLT_ARRIVAL_SHAPE_KEY(Sym, Key) {ArrivalShape::Sym, Key},
#define BOLT_SLO_CHECK_KEY(Sym, Key) {SloCheck::Sym, Key},
inline constexpr util::EnumKey<StageKind> kStageKindKeys[] = {
    BOLT_STAGE_KIND_CATALOG(BOLT_STAGE_KIND_KEY)};
inline constexpr util::EnumKey<AttackKind> kAttackKindKeys[] = {
    BOLT_ATTACK_KIND_CATALOG(BOLT_ATTACK_KIND_KEY)};
inline constexpr util::EnumKey<ArrivalShape> kArrivalShapeKeys[] = {
    BOLT_ARRIVAL_SHAPE_CATALOG(BOLT_ARRIVAL_SHAPE_KEY)};
inline constexpr util::EnumKey<SloCheck> kSloCheckKeys[] = {
    BOLT_SLO_CHECK_CATALOG(BOLT_SLO_CHECK_KEY)};
#undef BOLT_STAGE_KIND_KEY
#undef BOLT_ATTACK_KIND_KEY
#undef BOLT_ARRIVAL_SHAPE_KEY
#undef BOLT_SLO_CHECK_KEY

/** The `loop:` of a serve stage: serve::LoadGenConfig::closedLoop. */
inline constexpr util::EnumKey<bool> kLoopKeys[] = {{false, "open"},
                                                    {true, "closed"}};

/**
 * A controlled detection experiment (core::ControlledExperiment). The
 * runner builds `config.isolation` from the platform and the rung.
 */
struct ExperimentStage
{
    ExperimentStage()
    {
        config.servers = 8;
        config.victims = 20;
    }

    core::ExperimentConfig config;
    sim::Platform platform = sim::Platform::VirtualMachine;
    sim::IsolationLevel isolation = sim::IsolationLevel::None;
    /** Present iff the stage had a `faults:` block (which must enable
     *  at least one rate — a modifier-only block is a compile error). */
    bool hasFaults = false;
};

/**
 * A serving-layer load test (serve::ServeEngine), optionally shaped by
 * an arrival ramp: flash-crowd and diurnal shapes split the run into
 * `segments` back-to-back engine runs whose offered QPS follows the
 * ramp curve, each segment drawing from its own derived seed. The
 * runner splits `config.load.requests` across the segments.
 */
struct ServeStage
{
    serve::ServeConfig config{.load = {.requests = 1000}};

    ArrivalShape shape = ArrivalShape::Steady;
    int segments = 6;          ///< Ramp resolution (non-steady shapes).
    double peakFactor = 4.0;   ///< Flash-crowd: peak QPS / base QPS.
    double floorFactor = 0.25; ///< Diurnal: trough QPS / base QPS.
};

/** An attack campaign (attacks::DosTimelineExperiment / CoResidency). */
struct AttackStage
{
    AttackKind kind = AttackKind::Dos;
    attacks::DosTimelineConfig dos;         ///< kind == Dos.
    attacks::CoResidencyConfig coresidency; ///< kind == CoResidency.
};

/**
 * One detection round on one host (core::Detector::detectOnce): a
 * hidden victim drawn from `family` runs at 90% load beside a 4-vCPU
 * adversary, and the round's recommender names it. The compiler checks
 * the family against workloads::catalog().
 */
struct DetectStage
{
    std::string family = "memcached";
};

/**
 * One `expect:` item: either a bound on an end-of-run counter delta
 * (`metric` plus `min` and/or `max`) or an alert-state check (`slo`,
 * with `rule` for fired / not-fired). A failed expectation makes
 * `bolt_cli run` exit 3 with a file:line message.
 */
struct ExpectSpec
{
    std::string metric; ///< Counter name ("serve.admitted", ...).
    bool hasMin = false;
    bool hasMax = false;
    uint64_t min = 0;
    uint64_t max = 0;
    bool hasSlo = false; ///< An alert-state check rather than a metric.
    SloCheck slo = SloCheck::NoAlertsFiring;
    std::string rule; ///< Rule name for fired / not-fired.
    int line = 0;     ///< Source line (diagnostics only).
};

struct Scenario;

/** One node of the scenario graph. */
struct Stage
{
    StageKind kind = StageKind::Experiment;
    std::string name; ///< Defaults to "<kind>-<index>".
    /** 0 = derive from the scenario seed and stage index. */
    uint64_t seed = 0;

    ExperimentStage experiment; ///< kind == Experiment.
    ServeStage serve;           ///< kind == Serve.
    AttackStage attack;         ///< kind == Attack.
    /**
     * kind == Fleet: a fleet-scale sharded simulation
     * (sim::FleetCluster), two-plane so the stage digest is
     * byte-identical at any shard count x thread count (`shards` only
     * moves the partition boundaries, which shows up in the cross-shard
     * migration statistic).
     */
    sim::FleetConfig fleet;
    /**
     * kind == Armsrace: one cell of the placement arms race
     * (colo::runTournament), each list holding one entry: `reps`
     * co-location campaigns by one attacker strategy against one
     * allocation policy at one utilization level. The stage digest is
     * the tournament digest, byte-identical at any thread count.
     */
    colo::TournamentConfig armsrace{
        .utilLevels = {50.0},
        .attackers = {colo::AttackerKind::Churn},
        .policies = {colo::PolicyKind::LeastLoaded}};
    DetectStage detect; ///< kind == Detect.

    // kind == Include: a composable sub-scenario.
    std::string includePath; ///< As written (relative to includer).
    int repeat = 1;          ///< Run the sub-scenario this many times.
    std::shared_ptr<const Scenario> sub; ///< Compiled sub-scenario.
};

/** A compiled, validated scenario. */
struct Scenario
{
    std::string name;
    std::string description;
    uint64_t seed = 1;
    /** Telemetry window width the runner forces when `slo:` rules are
     *  present, so alert goldens don't depend on CLI flags. */
    double sloWindowSec = 1.0;
    std::vector<obs::SloRule> sloRules;
    std::vector<ExpectSpec> expects;
    std::vector<Stage> stages;
    /** Source path as opened (diagnostics only; not part of the graph). */
    std::string sourcePath;

    /**
     * FNV-1a fingerprint of the entire graph: of dump(), folded with
     * each include stage's sub-scenario digest. compile(dump())
     * reproduces it exactly (the round-trip identity the tests pin).
     */
    uint64_t graphDigest() const;

    /**
     * Canonical text serialization: every schema key written
     * explicitly (defaults filled in; empty strings, absent optional
     * items and blocks omitted), doubles in shortest round-trip form,
     * stable ordering. Recompiling the dump yields an identical graph.
     * Include stages are dumped as include stages (the sub-scenario
     * file must still be reachable).
     */
    std::string dump() const;
};

/**
 * One row of the schema key table: the machine-readable contract that
 * docs/SCENARIOS.md documents and tests/test_scenario.cc diffs against
 * the doc. `determinism` is "sim" (the key changes results) or "meta"
 * (names, descriptions, telemetry checks); both fold into graphDigest().
 */
struct KeyDoc
{
    std::string path;  ///< e.g. "stages[].faults.arrivals".
    const char* type;  ///< string|uint|int|double|bool|enum|map|list.
    std::string range; ///< "[0, 1]", enum keys "a | b", or "-".
    std::string defaultValue; ///< "-" when required.
    const char* determinism;  ///< "sim" | "meta".
    const char* help;
};

/**
 * Every key the compiler accepts, in documentation order. A key whose
 * default depends on the stage kind (servers, probes, waves) has one
 * row per kind.
 */
const std::vector<KeyDoc>& schemaKeys();

/**
 * Compile scenario text. Include paths resolve relative to the
 * directory of `filename`. On failure returns false with
 * *err = "<file>:<line>: <message>"; CLI callers exit 2.
 */
bool compileText(std::string_view source, std::string_view filename,
                 Scenario* out, std::string* err);

/** Compile a scenario file from disk (same contract as compileText). */
bool compileFile(const std::string& path, Scenario* out,
                 std::string* err);

/**
 * Compile a bolt_cli run subcommand into a one-stage scenario named
 * after it: `kind` is the `stage:` kind and each `--key value` pair of
 * `flags` becomes a key of that stage. Dotted keys open nested blocks
 * (`--faults.arrivals 0.1`), so docs/SCENARIOS.md is the flag
 * reference and `--seed` sets the stage's `seed:`. All validation is
 * the compiler's; diagnostics read "<flag>: <message>", naming the
 * offending flag, or "<kind>: <message>" for the stage as a whole.
 */
bool compileFlags(std::string_view kind,
                  const std::vector<std::string>& flags, Scenario* out,
                  std::string* err);

} // namespace scenario
} // namespace bolt

#endif // BOLT_SCENARIO_SCENARIO_H
