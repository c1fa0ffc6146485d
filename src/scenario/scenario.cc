#include "scenario/scenario.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "scenario/text.h"
#include "util/digest.h"
#include "util/parse.h"

namespace bolt {
namespace scenario {

namespace {

constexpr int kMaxStages = 64;
constexpr int kMaxIncludeDepth = 8;

// Key tables of the obs SLO-rule vocabularies, expanded from the
// catalogs obs owns.
#define BOLT_RULE_KIND_KEY(Sym, Key) {obs::RuleKind::Sym, Key},
#define BOLT_RULE_AGG_KEY(Sym, Key) {obs::RuleAgg::Sym, Key},
#define BOLT_RULE_OP_KEY(Sym, Key) {obs::RuleOp::Sym, Key},
constexpr util::EnumKey<obs::RuleKind> kRuleKindKeys[] = {
    BOLT_RULE_KIND_CATALOG(BOLT_RULE_KIND_KEY)};
constexpr util::EnumKey<obs::RuleAgg> kRuleAggKeys[] = {
    BOLT_RULE_AGG_CATALOG(BOLT_RULE_AGG_KEY)};
constexpr util::EnumKey<obs::RuleOp> kRuleOpKeys[] = {
    BOLT_RULE_OP_CATALOG(BOLT_RULE_OP_KEY)};
#undef BOLT_RULE_KIND_KEY
#undef BOLT_RULE_AGG_KEY
#undef BOLT_RULE_OP_KEY

using util::enumKey;
using util::fmtDouble;

std::string
errorAt(std::string_view filename, int line, const std::string& message)
{
    std::ostringstream os;
    os << filename << ":" << line << ": " << message;
    return os.str();
}

/**
 * Typed, strict reader over one parsed map: getters validate kind,
 * full-token numeric syntax and inclusive ranges; finish() rejects any
 * key no getter asked for, listing the valid set — the same
 * fail-loudly contract as util::CliArgs, with line numbers.
 *
 * The first error wins; later getters become no-ops, so compile code
 * reads every key unconditionally and checks failed() once.
 */
class MapReader
{
  public:
    MapReader(const TextNode& node, std::string_view filename,
              std::string context)
        : node_(node), filename_(filename), context_(std::move(context))
    {
    }

    bool failed() const { return !error_.empty(); }
    const std::string& error() const { return error_; }

    void
    getString(const char* key, std::string* out, bool required = false)
    {
        const TextNode* v = claim(key);
        if (failed())
            return;
        if (!v) {
            if (required)
                fail(node_.line, std::string("missing required key '") +
                                     key + "' in " + context_);
            return;
        }
        if (!expectScalar(key, v))
            return;
        *out = v->scalar;
    }

    void
    getUInt(const char* key, uint64_t* out)
    {
        const TextNode* v = claim(key);
        if (failed() || !v || !expectScalar(key, v))
            return;
        uint64_t parsed = 0;
        if (!util::parseUInt(v->scalar, &parsed)) {
            fail(v->line, "value '" + v->scalar + "' for '" + key +
                              "' is not an unsigned integer");
            return;
        }
        *out = parsed;
    }

    void
    getInt(const char* key, long long lo, long long hi, int* out)
    {
        const TextNode* v = claim(key);
        if (failed() || !v || !expectScalar(key, v))
            return;
        long long parsed = 0;
        if (!util::parseInt(v->scalar, &parsed)) {
            fail(v->line, "value '" + v->scalar + "' for '" + key +
                              "' is not an integer");
            return;
        }
        if (parsed < lo || parsed > hi) {
            fail(v->line, "value " + v->scalar + " for '" + key +
                              "' out of range [" + std::to_string(lo) +
                              ", " + std::to_string(hi) + "]");
            return;
        }
        *out = static_cast<int>(parsed);
    }

    void
    getDouble(const char* key, double lo, double hi, double* out)
    {
        const TextNode* v = claim(key);
        if (failed() || !v || !expectScalar(key, v))
            return;
        double parsed = 0.0;
        if (!util::parseDouble(v->scalar, &parsed)) {
            fail(v->line, "value '" + v->scalar + "' for '" + key +
                              "' is not a number");
            return;
        }
        if (parsed < lo || parsed > hi) {
            fail(v->line, "value " + v->scalar + " for '" + key +
                              "' out of range [" + fmtDouble(lo) + ", " +
                              fmtDouble(hi) + "]");
            return;
        }
        *out = parsed;
    }

    void
    getBool(const char* key, bool* out)
    {
        const TextNode* v = claim(key);
        if (failed() || !v || !expectScalar(key, v))
            return;
        if (v->scalar == "true") {
            *out = true;
        } else if (v->scalar == "false") {
            *out = false;
        } else {
            fail(v->line, "value '" + v->scalar + "' for '" + key +
                              "' must be true or false");
        }
    }

    template <typename E, size_t N>
    void
    getEnum(const char* key, const util::EnumKey<E> (&table)[N], E* out)
    {
        const TextNode* v = claim(key);
        if (failed() || !v || !expectScalar(key, v))
            return;
        if (!util::enumFromKey(table, v->scalar, out))
            fail(v->line, "value '" + v->scalar + "' for '" + key +
                              "' must be one of " +
                              util::enumKeyList(table));
    }

    /** Optional nested block of the given kind; nullptr when absent. */
    const TextNode*
    block(const char* key, TextNode::Kind kind)
    {
        const TextNode* v = claim(key);
        if (failed() || !v)
            return nullptr;
        if (v->kind != kind) {
            fail(v->line, std::string("key '") + key + "' expects " +
                              (kind == TextNode::Kind::Map
                                   ? "an indented block"
                                   : "a list") +
                              ", not a value");
            return nullptr;
        }
        return v;
    }

    /** Reject unclaimed keys. Call after every getter has run. */
    bool
    finish()
    {
        if (failed())
            return false;
        for (const auto& [key, value] : node_.entries) {
            if (std::find(claimed_.begin(), claimed_.end(), key) !=
                claimed_.end())
                continue;
            std::string valid;
            for (size_t i = 0; i < claimed_.size(); ++i)
                valid += (i ? ", " : "") + claimed_[i];
            fail(value.line, "unknown key '" + key + "' in " + context_ +
                                 " (valid: " + valid + ")");
            return false;
        }
        return true;
    }

    void
    fail(int line, const std::string& message)
    {
        if (error_.empty())
            error_ = errorAt(filename_, line, message);
    }

  private:
    const TextNode*
    claim(const char* key)
    {
        claimed_.push_back(key);
        return node_.find(key);
    }

    bool
    expectScalar(const char* key, const TextNode* v)
    {
        if (v->kind == TextNode::Kind::Scalar)
            return true;
        fail(v->line, std::string("key '") + key +
                          "' expects a value, not a block");
        return false;
    }

    const TextNode& node_;
    std::string_view filename_;
    std::string context_;
    std::string error_;
    std::vector<std::string> claimed_;
};

/** Compile-time include state: the stack of files being compiled. */
struct CompileCtx
{
    std::vector<std::string> stack; ///< Canonical paths, outermost first.
};

bool compileTree(const TextNode& root, std::string_view filename,
                 const std::string& dir, CompileCtx* ctx, Scenario* out,
                 std::string* err);

bool
compileFaults(const TextNode& node, std::string_view filename,
              ExperimentStage* stage, std::string* err)
{
    MapReader r(node, filename, "faults block");
    fault::FaultPlan& plan = stage->faults;
    r.getDouble("arrivals", 0.0, 1.0, &plan.arrivalProb);
    r.getDouble("departures", 0.0, 1.0, &plan.departureProb);
    r.getDouble("phase-flips", 0.0, 1.0, &plan.phaseFlipProb);
    r.getDouble("dropouts", 0.0, 1.0, &plan.dropoutProb);
    r.getDouble("spikes", 0.0, 1.0, &plan.spikeProb);
    r.getDouble("spike-mag", 0.0, 100.0, &plan.spikeMagnitude);
    r.getDouble("jitter", 0.0, 1.0, &plan.capacityJitterAmp);
    r.getDouble("jitter-window", 0.001, 3600.0,
                &plan.capacityJitterWindowSec);
    r.getUInt("seed", &plan.seed);
    if (!r.failed() && plan.capacityJitterAmp >= 1.0)
        r.fail(node.find("jitter")->line,
               "value " + fmtDouble(plan.capacityJitterAmp) +
                   " for 'jitter' out of range [0, 1)");
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    if (!plan.enabled()) {
        *err = errorAt(filename, node.line,
                       "faults block enables no fault rate (set one "
                       "of: arrivals, departures, phase-flips, "
                       "dropouts, spikes, jitter)");
        return false;
    }
    stage->hasFaults = true;
    return true;
}

bool
compileExperimentStage(MapReader& r, const TextNode& item,
                       std::string_view filename, Stage* stage,
                       std::string* err)
{
    ExperimentStage& e = stage->experiment;
    r.getInt("servers", 1, 100000, &e.servers);
    r.getInt("victims", 0, 1000000, &e.victims);
    r.getEnum("policy", core::kPolicyKeys, &e.policy);
    r.getEnum("platform", sim::kPlatformKeys, &e.platform);
    r.getEnum("isolation", sim::kIsolationKeys, &e.isolation);
    r.getDouble("obfuscation", 0.0, 1.0, &e.obfuscation);
    const TextNode* faults = r.block("faults", TextNode::Kind::Map);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    if (faults && !compileFaults(*faults, filename, &e, err))
        return false;
    (void)item;
    return true;
}

bool
compileServeStage(MapReader& r, const TextNode& item,
                  std::string_view filename, Stage* stage,
                  std::string* err)
{
    ServeStage& s = stage->serve;
    r.getEnum("loop", kLoopKindKeys, &s.loop);
    r.getInt("requests", 1, 10000000, &s.requests);
    r.getDouble("qps", 1e-6, 1e9, &s.qps);
    r.getInt("clients", 1, 100000, &s.clients);
    r.getDouble("think-ms", 0.0, 1e6, &s.thinkMs);
    r.getDouble("slo-ms", 0.001, 1e6, &s.sloMs);
    r.getInt("workers", 1, 256, &s.workers);
    r.getInt("queue-cap", 1, 1000000, &s.queueCap);
    r.getInt("max-batch", 1, 64, &s.maxBatch);
    r.getDouble("batch-setup-ms", 0.0, 1000.0, &s.batchSetupMs);
    r.getDouble("batch-wait-ms", 0.0, 1000.0, &s.batchWaitMs);
    r.getBool("admit-check", &s.admitCheck);
    r.getDouble("decompose-frac", 0.0, 1.0, &s.decomposeFrac);
    const TextNode* arrival = r.block("arrival", TextNode::Kind::Map);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }

    if (arrival) {
        MapReader ar(*arrival, filename, "arrival block");
        ar.getEnum("shape", kArrivalShapeKeys, &s.shape);
        ar.getInt("segments", 1, 64, &s.segments);
        ar.getDouble("peak-factor", 1.0, 1000.0, &s.peakFactor);
        ar.getDouble("floor-factor", 0.0, 1.0, &s.floorFactor);
        if (!ar.finish()) {
            *err = ar.error();
            return false;
        }
        if (s.shape != ArrivalShape::Steady &&
            s.loop == LoopKind::Closed) {
            *err = errorAt(filename, arrival->find("shape")->line,
                           "arrival shape '" +
                               std::string(enumKey(kArrivalShapeKeys,
                                                   s.shape)) +
                               "' requires loop: open (a closed loop "
                               "paces itself; offered QPS has no "
                               "effect)");
            return false;
        }
    }
    (void)item;
    return true;
}

bool
compileAttackStage(MapReader& r, const TextNode& item,
                   std::string_view filename, Stage* stage,
                   std::string* err)
{
    AttackStage& a = stage->attack;
    r.getEnum("kind", kAttackKindKeys, &a.kind);
    if (r.failed()) {
        *err = r.error();
        return false;
    }
    if (!item.find("kind")) {
        *err = errorAt(filename, item.line,
                       "missing required key 'kind' in attack stage");
        return false;
    }
    if (a.kind == AttackKind::Dos) {
        r.getDouble("margin", 1.0, 2.0, &a.margin);
        r.getInt("top-resources", 1, 10, &a.topResources);
        r.getDouble("duration-sec", 30.0, 600.0, &a.durationSec);
    } else {
        r.getInt("probes", 1, 10000, &a.probes);
        r.getInt("waves", 1, 1000, &a.waves);
        r.getInt("victim-vms", 1, 100, &a.victimVms);
    }
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    return true;
}

bool
compileFleetStage(MapReader& r, const TextNode& item,
                  std::string_view filename, Stage* stage,
                  std::string* err)
{
    FleetStage& f = stage->fleet;
    r.getInt("hosts", 1, 1000000, &f.hosts);
    r.getInt("tenants", 0, 10000000, &f.tenants);
    r.getInt("shards", 1, 4096, &f.shards);
    r.getInt("epochs", 1, 10000, &f.epochs);
    r.getDouble("arrivals", 0.0, 100.0, &f.arrivals);
    r.getDouble("departures", 0.0, 1.0, &f.departures);
    r.getDouble("migrations", 0.0, 1.0, &f.migrations);
    r.getDouble("host-faults", 0.0, 1.0, &f.hostFaults);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    (void)item;
    (void)filename;
    return true;
}

bool
compileArmsraceStage(MapReader& r, const TextNode& item,
                     std::string_view filename, Stage* stage,
                     std::string* err)
{
    ArmsraceStage& a = stage->armsrace;
    r.getEnum("allocator", colo::kPolicyKindKeys, &a.allocator);
    r.getEnum("attacker", colo::kAttackerKeys, &a.attacker);
    r.getInt("servers", 1, 100000, &a.servers);
    r.getInt("probes", 1, 10000, &a.probes);
    r.getInt("waves", 1, 1000, &a.waves);
    r.getInt("reps", 1, 64, &a.reps);
    r.getDouble("utilization", 5.0, 90.0, &a.utilization);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    (void)item;
    (void)filename;
    return true;
}

bool
compileIncludeStage(MapReader& r, const TextNode& item,
                    std::string_view filename, const std::string& dir,
                    CompileCtx* ctx, Stage* stage, std::string* err)
{
    r.getString("path", &stage->includePath, /*required=*/true);
    r.getInt("repeat", 1, 32, &stage->repeat);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    const TextNode* path_node = item.find("path");
    int path_line = path_node ? path_node->line : item.line;

    namespace fs = std::filesystem;
    fs::path resolved = fs::path(dir) / stage->includePath;
    std::error_code ec;
    fs::path canonical = fs::weakly_canonical(resolved, ec);
    std::string canon = ec ? resolved.lexically_normal().string()
                           : canonical.string();

    if (std::find(ctx->stack.begin(), ctx->stack.end(), canon) !=
        ctx->stack.end()) {
        *err = errorAt(filename, path_line,
                       "cyclic include of '" + stage->includePath + "'");
        return false;
    }
    if (ctx->stack.size() >= kMaxIncludeDepth) {
        *err = errorAt(filename, path_line,
                       "include depth exceeds " +
                           std::to_string(kMaxIncludeDepth));
        return false;
    }

    std::ifstream in(resolved);
    if (!in) {
        *err = errorAt(filename, path_line,
                       "cannot open include '" + stage->includePath +
                           "'");
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    TextNode sub_root;
    if (!parseText(buffer.str(), resolved.string(), &sub_root, err))
        return false;

    auto sub = std::make_shared<Scenario>();
    sub->sourcePath = resolved.string();
    ctx->stack.push_back(canon);
    bool ok = compileTree(sub_root, resolved.string(),
                          resolved.parent_path().string(), ctx,
                          sub.get(), err);
    ctx->stack.pop_back();
    if (!ok)
        return false;
    stage->sub = std::move(sub);
    return true;
}

/** True when `name` is a counter in the metric catalog. */
bool
isCounterMetric(std::string_view name)
{
    for (size_t i = 0; i < obs::kNumCounters; ++i) {
        if (name == obs::metricInfo(static_cast<obs::MetricId>(i)).name)
            return true;
    }
    return false;
}

bool
compileSloRules(const TextNode& list, std::string_view filename,
                Scenario* out, std::string* err)
{
    for (const TextNode& item : list.items) {
        if (item.kind != TextNode::Kind::Map) {
            *err = errorAt(filename, item.line,
                           "each slo[] item must be a map beginning "
                           "with '- rule: <name>'");
            return false;
        }
        SloRuleSpec spec;
        spec.line = item.line;
        {
            MapReader probe(item, filename, "slo rule");
            probe.getEnum("kind", kRuleKindKeys, &spec.kind);
            if (probe.failed()) {
                *err = probe.error();
                return false;
            }
        }
        // Like attack stages, only the keys of the declared kind are
        // claimed, so a stray key fails loudly with the valid set.
        MapReader r(item, filename,
                    std::string(enumKey(kRuleKindKeys, spec.kind)) +
                        " slo rule");
        obs::RuleKind discard{};
        r.getEnum("kind", kRuleKindKeys, &discard);
        r.getString("rule", &spec.rule, /*required=*/true);
        r.getString("series", &spec.series, /*required=*/true);
        r.getString("label", &spec.label);
        if (spec.kind == obs::RuleKind::Threshold) {
            r.getEnum("agg", kRuleAggKeys, &spec.agg);
            r.getEnum("op", kRuleOpKeys, &spec.op);
            r.getDouble("value", -1e18, 1e18, &spec.value);
            r.getInt("sustain-windows", 1, 10000, &spec.sustainWindows);
        } else if (spec.kind == obs::RuleKind::BurnRate) {
            r.getString("total-series", &spec.totalSeries,
                        /*required=*/true);
            r.getString("total-label", &spec.totalLabel);
            r.getDouble("budget", 1e-9, 1.0, &spec.budget);
            r.getDouble("value", -1e18, 1e18, &spec.value);
            r.getInt("short-windows", 1, 10000, &spec.shortWindows);
            r.getInt("long-windows", 1, 10000, &spec.longWindows);
        } else {
            r.getInt("windows", 1, 10000, &spec.windows);
        }
        if (!r.finish()) {
            *err = r.error();
            return false;
        }
        obs::SeriesId sid;
        if (!obs::seriesByName(spec.series, &sid)) {
            *err = errorAt(filename, item.find("series")->line,
                           "unknown telemetry series '" + spec.series +
                               "' for 'series'");
            return false;
        }
        if (spec.kind == obs::RuleKind::BurnRate &&
            !obs::seriesByName(spec.totalSeries, &sid)) {
            *err = errorAt(filename, item.find("total-series")->line,
                           "unknown telemetry series '" +
                               spec.totalSeries +
                               "' for 'total-series'");
            return false;
        }
        for (const SloRuleSpec& prev : out->sloRules) {
            if (prev.rule == spec.rule) {
                *err = errorAt(filename, item.line,
                               "duplicate slo rule name '" + spec.rule +
                                   "'");
                return false;
            }
        }
        out->sloRules.push_back(std::move(spec));
    }
    return true;
}

bool
compileExpects(const TextNode& list, std::string_view filename,
               Scenario* out, std::string* err)
{
    for (const TextNode& item : list.items) {
        if (item.kind != TextNode::Kind::Map) {
            *err = errorAt(filename, item.line,
                           "each expect[] item must be a map ('- "
                           "metric: ...' or '- slo: ...')");
            return false;
        }
        ExpectSpec e;
        e.line = item.line;
        e.hasMin = item.find("min") != nullptr;
        e.hasMax = item.find("max") != nullptr;
        e.hasSlo = item.find("slo") != nullptr;
        MapReader r(item, filename, "expect item");
        r.getString("metric", &e.metric);
        r.getUInt("min", &e.min);
        r.getUInt("max", &e.max);
        r.getEnum("slo", kSloCheckKeys, &e.slo);
        r.getString("rule", &e.rule);
        if (!r.finish()) {
            *err = r.error();
            return false;
        }
        if (e.metric.empty() != e.hasSlo) {
            *err = errorAt(filename, item.line,
                           "expect item needs exactly one of 'metric' "
                           "or 'slo'");
            return false;
        }
        if (!e.metric.empty()) {
            if (!isCounterMetric(e.metric)) {
                *err = errorAt(filename, item.find("metric")->line,
                               "unknown counter metric '" + e.metric +
                                   "' for 'metric'");
                return false;
            }
            if (!e.hasMin && !e.hasMax) {
                *err = errorAt(filename, item.line,
                               "metric expectation on '" + e.metric +
                                   "' needs 'min' and/or 'max'");
                return false;
            }
            if (e.hasMin && e.hasMax && e.min > e.max) {
                *err = errorAt(filename, item.line,
                               "expectation min " +
                                   std::to_string(e.min) +
                                   " exceeds max " +
                                   std::to_string(e.max));
                return false;
            }
            if (!e.rule.empty()) {
                *err = errorAt(filename, item.find("rule")->line,
                               "'rule' is only valid with 'slo'");
                return false;
            }
        } else {
            if (e.hasMin || e.hasMax) {
                *err = errorAt(filename, item.line,
                               "'min'/'max' are only valid with "
                               "'metric'");
                return false;
            }
            bool needs_rule = e.slo != SloCheck::NoAlertsFiring;
            if (needs_rule == e.rule.empty()) {
                *err = errorAt(
                    filename, item.line,
                    needs_rule
                        ? "expect slo: " +
                              std::string(enumKey(kSloCheckKeys, e.slo)) +
                              " requires 'rule: <slo rule name>'"
                        : "'rule' is not valid with slo: "
                          "no-alerts-firing");
                return false;
            }
            if (needs_rule) {
                bool known = false;
                for (const SloRuleSpec& spec : out->sloRules)
                    known = known || spec.rule == e.rule;
                if (!known) {
                    *err = errorAt(filename, item.find("rule")->line,
                                   "expect references undeclared slo "
                                   "rule '" +
                                       e.rule + "'");
                    return false;
                }
            }
        }
        out->expects.push_back(std::move(e));
    }
    return true;
}

bool
compileStage(const TextNode& item, size_t index,
             std::string_view filename, const std::string& dir,
             CompileCtx* ctx, Stage* stage, std::string* err)
{
    if (item.kind != TextNode::Kind::Map || !item.find("stage")) {
        *err = errorAt(filename, item.line,
                       "each stages[] item must begin with '- stage: " +
                           util::enumKeyList(kStageKindKeys, "|") + "'");
        return false;
    }

    {
        MapReader probe(item, filename, "stage");
        probe.getEnum("stage", kStageKindKeys, &stage->kind);
        if (probe.failed()) {
            *err = probe.error();
            return false;
        }
    }
    std::string kind = enumKey(kStageKindKeys, stage->kind);
    stage->name = kind + "-" + std::to_string(index);

    MapReader r(item, filename, kind + " stage");
    StageKind discard{};
    r.getEnum("stage", kStageKindKeys, &discard);
    r.getString("name", &stage->name);
    r.getUInt("seed", &stage->seed);

    switch (stage->kind) {
    case StageKind::Experiment:
        return compileExperimentStage(r, item, filename, stage, err);
    case StageKind::Serve:
        return compileServeStage(r, item, filename, stage, err);
    case StageKind::Attack:
        return compileAttackStage(r, item, filename, stage, err);
    case StageKind::Fleet:
        return compileFleetStage(r, item, filename, stage, err);
    case StageKind::Armsrace:
        return compileArmsraceStage(r, item, filename, stage, err);
    case StageKind::Include:
        return compileIncludeStage(r, item, filename, dir, ctx, stage,
                                   err);
    }
    return false; // Unreachable.
}

bool
compileTree(const TextNode& root, std::string_view filename,
            const std::string& dir, CompileCtx* ctx, Scenario* out,
            std::string* err)
{
    MapReader r(root, filename, "top level");
    r.getString("scenario", &out->name, /*required=*/true);
    r.getString("description", &out->description);
    r.getUInt("seed", &out->seed);
    r.getDouble("slo-window-sec", 0.001, 3600.0, &out->sloWindowSec);
    const TextNode* slo = r.block("slo", TextNode::Kind::List);
    const TextNode* expect = r.block("expect", TextNode::Kind::List);
    const TextNode* stages = r.block("stages", TextNode::Kind::List);
    if (!r.finish()) {
        *err = r.error();
        return false;
    }
    if (slo && !compileSloRules(*slo, filename, out, err))
        return false;
    if (expect && !compileExpects(*expect, filename, out, err))
        return false;
    if (!r.failed() && out->name.empty()) {
        *err = errorAt(filename, root.find("scenario")->line,
                       "scenario name must not be empty");
        return false;
    }
    if (!stages) {
        *err = errorAt(filename, root.line,
                       "missing required key 'stages' in top level");
        return false;
    }
    if (stages->items.empty() ||
        stages->items.size() > static_cast<size_t>(kMaxStages)) {
        *err = errorAt(filename, stages->line,
                       "stages must contain between 1 and " +
                           std::to_string(kMaxStages) + " entries");
        return false;
    }

    out->stages.resize(stages->items.size());
    for (size_t i = 0; i < stages->items.size(); ++i) {
        if (!compileStage(stages->items[i], i, filename, dir, ctx,
                          &out->stages[i], err))
            return false;
    }
    return true;
}

void
dumpStage(const Stage& stage, std::ostream& os)
{
    auto kv = [&os](const char* key, std::string_view value) {
        os << "    " << key << ": " << value << "\n";
    };
    os << "  - stage: " << enumKey(kStageKindKeys, stage.kind) << "\n";
    kv("name", stage.name);
    kv("seed", std::to_string(stage.seed));
    switch (stage.kind) {
    case StageKind::Experiment: {
        const ExperimentStage& e = stage.experiment;
        kv("servers", std::to_string(e.servers));
        kv("victims", std::to_string(e.victims));
        kv("policy", enumKey(core::kPolicyKeys, e.policy));
        kv("platform", enumKey(sim::kPlatformKeys, e.platform));
        kv("isolation", enumKey(sim::kIsolationKeys, e.isolation));
        kv("obfuscation", fmtDouble(e.obfuscation));
        if (e.hasFaults) {
            const fault::FaultPlan& p = e.faults;
            os << "    faults:\n";
            auto fv = [&os](const char* key, const std::string& value) {
                os << "      " << key << ": " << value << "\n";
            };
            fv("arrivals", fmtDouble(p.arrivalProb));
            fv("departures", fmtDouble(p.departureProb));
            fv("phase-flips", fmtDouble(p.phaseFlipProb));
            fv("dropouts", fmtDouble(p.dropoutProb));
            fv("spikes", fmtDouble(p.spikeProb));
            fv("spike-mag", fmtDouble(p.spikeMagnitude));
            fv("jitter", fmtDouble(p.capacityJitterAmp));
            fv("jitter-window", fmtDouble(p.capacityJitterWindowSec));
            fv("seed", std::to_string(p.seed));
        }
        break;
    }
    case StageKind::Serve: {
        const ServeStage& s = stage.serve;
        kv("loop", enumKey(kLoopKindKeys, s.loop));
        kv("requests", std::to_string(s.requests));
        kv("qps", fmtDouble(s.qps));
        kv("clients", std::to_string(s.clients));
        kv("think-ms", fmtDouble(s.thinkMs));
        kv("slo-ms", fmtDouble(s.sloMs));
        kv("workers", std::to_string(s.workers));
        kv("queue-cap", std::to_string(s.queueCap));
        kv("max-batch", std::to_string(s.maxBatch));
        kv("batch-setup-ms", fmtDouble(s.batchSetupMs));
        kv("batch-wait-ms", fmtDouble(s.batchWaitMs));
        kv("admit-check", s.admitCheck ? "true" : "false");
        kv("decompose-frac", fmtDouble(s.decomposeFrac));
        os << "    arrival:\n";
        os << "      shape: " << enumKey(kArrivalShapeKeys, s.shape)
           << "\n";
        os << "      segments: " << s.segments << "\n";
        os << "      peak-factor: " << fmtDouble(s.peakFactor) << "\n";
        os << "      floor-factor: " << fmtDouble(s.floorFactor)
           << "\n";
        break;
    }
    case StageKind::Attack: {
        const AttackStage& a = stage.attack;
        kv("kind", enumKey(kAttackKindKeys, a.kind));
        if (a.kind == AttackKind::Dos) {
            kv("margin", fmtDouble(a.margin));
            kv("top-resources", std::to_string(a.topResources));
            kv("duration-sec", fmtDouble(a.durationSec));
        } else {
            kv("probes", std::to_string(a.probes));
            kv("waves", std::to_string(a.waves));
            kv("victim-vms", std::to_string(a.victimVms));
        }
        break;
    }
    case StageKind::Fleet: {
        const FleetStage& f = stage.fleet;
        kv("hosts", std::to_string(f.hosts));
        kv("tenants", std::to_string(f.tenants));
        kv("shards", std::to_string(f.shards));
        kv("epochs", std::to_string(f.epochs));
        kv("arrivals", fmtDouble(f.arrivals));
        kv("departures", fmtDouble(f.departures));
        kv("migrations", fmtDouble(f.migrations));
        kv("host-faults", fmtDouble(f.hostFaults));
        break;
    }
    case StageKind::Armsrace: {
        const ArmsraceStage& a = stage.armsrace;
        kv("allocator", enumKey(colo::kPolicyKindKeys, a.allocator));
        kv("attacker", enumKey(colo::kAttackerKeys, a.attacker));
        kv("servers", std::to_string(a.servers));
        kv("probes", std::to_string(a.probes));
        kv("waves", std::to_string(a.waves));
        kv("reps", std::to_string(a.reps));
        kv("utilization", fmtDouble(a.utilization));
        break;
    }
    case StageKind::Include:
        kv("path", stage.includePath);
        kv("repeat", std::to_string(stage.repeat));
        break;
    }
}

void
digestStage(const Stage& stage, util::Fnv1a* d)
{
    auto str = [d](std::string_view s) {
        d->u64(s.size());
        d->str(s);
    };
    d->u8(static_cast<uint8_t>(stage.kind));
    str(stage.name);
    d->u64(stage.seed);
    switch (stage.kind) {
    case StageKind::Experiment: {
        const ExperimentStage& e = stage.experiment;
        d->u64(static_cast<uint64_t>(e.servers));
        d->u64(static_cast<uint64_t>(e.victims));
        str(enumKey(core::kPolicyKeys, e.policy));
        str(enumKey(sim::kPlatformKeys, e.platform));
        str(enumKey(sim::kIsolationKeys, e.isolation));
        d->f64(e.obfuscation);
        d->u8(e.hasFaults ? 1 : 0);
        if (e.hasFaults) {
            const fault::FaultPlan& p = e.faults;
            d->f64(p.arrivalProb);
            d->f64(p.departureProb);
            d->f64(p.phaseFlipProb);
            d->f64(p.dropoutProb);
            d->f64(p.spikeProb);
            d->f64(p.spikeMagnitude);
            d->f64(p.capacityJitterAmp);
            d->f64(p.capacityJitterWindowSec);
            d->u64(p.seed);
        }
        break;
    }
    case StageKind::Serve: {
        const ServeStage& s = stage.serve;
        d->u8(static_cast<uint8_t>(s.loop));
        d->u64(static_cast<uint64_t>(s.requests));
        d->f64(s.qps);
        d->u64(static_cast<uint64_t>(s.clients));
        d->f64(s.thinkMs);
        d->f64(s.sloMs);
        d->u64(static_cast<uint64_t>(s.workers));
        d->u64(static_cast<uint64_t>(s.queueCap));
        d->u64(static_cast<uint64_t>(s.maxBatch));
        d->f64(s.batchSetupMs);
        d->f64(s.batchWaitMs);
        d->u8(s.admitCheck ? 1 : 0);
        d->f64(s.decomposeFrac);
        d->u8(static_cast<uint8_t>(s.shape));
        d->u64(static_cast<uint64_t>(s.segments));
        d->f64(s.peakFactor);
        d->f64(s.floorFactor);
        break;
    }
    case StageKind::Attack: {
        const AttackStage& a = stage.attack;
        d->u8(static_cast<uint8_t>(a.kind));
        if (a.kind == AttackKind::Dos) {
            d->f64(a.margin);
            d->u64(static_cast<uint64_t>(a.topResources));
            d->f64(a.durationSec);
        } else {
            d->u64(static_cast<uint64_t>(a.probes));
            d->u64(static_cast<uint64_t>(a.waves));
            d->u64(static_cast<uint64_t>(a.victimVms));
        }
        break;
    }
    case StageKind::Fleet: {
        const FleetStage& f = stage.fleet;
        d->u64(static_cast<uint64_t>(f.hosts));
        d->u64(static_cast<uint64_t>(f.tenants));
        d->u64(static_cast<uint64_t>(f.shards));
        d->u64(static_cast<uint64_t>(f.epochs));
        d->f64(f.arrivals);
        d->f64(f.departures);
        d->f64(f.migrations);
        d->f64(f.hostFaults);
        break;
    }
    case StageKind::Armsrace: {
        const ArmsraceStage& a = stage.armsrace;
        str(enumKey(colo::kPolicyKindKeys, a.allocator));
        str(enumKey(colo::kAttackerKeys, a.attacker));
        d->u64(static_cast<uint64_t>(a.servers));
        d->u64(static_cast<uint64_t>(a.probes));
        d->u64(static_cast<uint64_t>(a.waves));
        d->u64(static_cast<uint64_t>(a.reps));
        d->f64(a.utilization);
        break;
    }
    case StageKind::Include:
        str(stage.includePath);
        d->u64(static_cast<uint64_t>(stage.repeat));
        d->u64(stage.sub ? stage.sub->graphDigest() : 0);
        break;
    }
}

} // namespace

uint64_t
Scenario::graphDigest() const
{
    util::Fnv1a d;
    auto str = [&d](std::string_view s) {
        d.u64(s.size());
        d.str(s);
    };
    str(name);
    str(description);
    d.u64(seed);
    d.f64(sloWindowSec);
    d.u64(sloRules.size());
    for (const SloRuleSpec& r : sloRules) {
        str(r.rule);
        str(enumKey(kRuleKindKeys, r.kind));
        str(r.series);
        str(r.label);
        str(enumKey(kRuleAggKeys, r.agg));
        str(enumKey(kRuleOpKeys, r.op));
        d.f64(r.value);
        d.u64(static_cast<uint64_t>(r.sustainWindows));
        str(r.totalSeries);
        str(r.totalLabel);
        d.f64(r.budget);
        d.u64(static_cast<uint64_t>(r.shortWindows));
        d.u64(static_cast<uint64_t>(r.longWindows));
        d.u64(static_cast<uint64_t>(r.windows));
    }
    d.u64(expects.size());
    for (const ExpectSpec& e : expects) {
        str(e.metric);
        d.u8(e.hasMin ? 1 : 0);
        d.u64(e.min);
        d.u8(e.hasMax ? 1 : 0);
        d.u64(e.max);
        str(e.hasSlo ? enumKey(kSloCheckKeys, e.slo) : "");
        str(e.rule);
    }
    d.u64(stages.size());
    for (const Stage& stage : stages)
        digestStage(stage, &d);
    return d.h;
}

std::string
Scenario::dump() const
{
    std::ostringstream os;
    os << "scenario: " << name << "\n";
    if (!description.empty())
        os << "description: " << description << "\n";
    os << "seed: " << seed << "\n";
    if (!sloRules.empty() || !expects.empty())
        os << "slo-window-sec: " << fmtDouble(sloWindowSec) << "\n";
    if (!sloRules.empty()) {
        os << "slo:\n";
        for (const SloRuleSpec& r : sloRules) {
            auto kv = [&os](const char* key, std::string_view value) {
                os << "    " << key << ": " << value << "\n";
            };
            os << "  - rule: " << r.rule << "\n";
            kv("kind", enumKey(kRuleKindKeys, r.kind));
            kv("series", r.series);
            if (!r.label.empty())
                kv("label", r.label);
            if (r.kind == obs::RuleKind::Threshold) {
                kv("agg", enumKey(kRuleAggKeys, r.agg));
                kv("op", enumKey(kRuleOpKeys, r.op));
                kv("value", fmtDouble(r.value));
                kv("sustain-windows", std::to_string(r.sustainWindows));
            } else if (r.kind == obs::RuleKind::BurnRate) {
                kv("total-series", r.totalSeries);
                if (!r.totalLabel.empty())
                    kv("total-label", r.totalLabel);
                kv("budget", fmtDouble(r.budget));
                kv("value", fmtDouble(r.value));
                kv("short-windows", std::to_string(r.shortWindows));
                kv("long-windows", std::to_string(r.longWindows));
            } else {
                kv("windows", std::to_string(r.windows));
            }
        }
    }
    if (!expects.empty()) {
        os << "expect:\n";
        for (const ExpectSpec& e : expects) {
            if (!e.metric.empty()) {
                os << "  - metric: " << e.metric << "\n";
                if (e.hasMin)
                    os << "    min: " << e.min << "\n";
                if (e.hasMax)
                    os << "    max: " << e.max << "\n";
            } else {
                os << "  - slo: " << enumKey(kSloCheckKeys, e.slo) << "\n";
                if (!e.rule.empty())
                    os << "    rule: " << e.rule << "\n";
            }
        }
    }
    os << "stages:\n";
    for (const Stage& stage : stages)
        dumpStage(stage, os);
    return os.str();
}

const std::vector<KeyDoc>&
schemaKeys()
{
    auto keys = [](const auto& table) {
        return util::enumKeyList(table, " | ");
    };
    static const std::vector<KeyDoc> kKeys = {
        // Top level.
        {"scenario", "string", "-", "-", "meta",
         "Scenario name (required)"},
        {"description", "string", "-", "(empty)", "meta",
         "One-line intent shown in reports"},
        {"seed", "uint", "[0, 2^64)", "1", "sim",
         "Root seed; stages without a seed derive theirs from it"},
        {"slo-window-sec", "double", "[0.001, 3600]", "1", "meta",
         "Telemetry window the runner forces when slo rules exist"},
        {"slo", "list", "-", "(absent)", "meta",
         "Declarative SLO rules the monitor evaluates during the run"},
        {"slo[].rule", "string", "-", "-", "meta",
         "Alert name (required, unique per scenario)"},
        {"slo[].kind", "enum", keys(kRuleKindKeys),
         "threshold", "meta", "Rule evaluation strategy"},
        {"slo[].series", "string", "-", "-", "meta",
         "Telemetry series the rule watches (required)"},
        {"slo[].label", "string", "-", "(empty)", "meta",
         "Series label; empty reads the unkeyed slot"},
        {"slo[].agg", "enum", keys(kRuleAggKeys),
         "mean", "meta", "Threshold: per-window aggregate"},
        {"slo[].op", "enum", keys(kRuleOpKeys), "above", "meta",
         "Threshold: violation direction"},
        {"slo[].value", "double", "[-1e+18, 1e+18]", "0", "meta",
         "Threshold trigger / burn-rate burn factor"},
        {"slo[].sustain-windows", "int", "[1, 10000]", "1", "meta",
         "Threshold: consecutive violating windows before firing"},
        {"slo[].total-series", "string", "-", "-", "meta",
         "Burn-rate denominator series (required)"},
        {"slo[].total-label", "string", "-", "(empty)", "meta",
         "Burn-rate denominator label"},
        {"slo[].budget", "double", "[1e-09, 1]", "0.01", "meta",
         "Burn-rate: allowed bad/total fraction"},
        {"slo[].short-windows", "int", "[1, 10000]", "1", "meta",
         "Burn-rate fast trailing window"},
        {"slo[].long-windows", "int", "[1, 10000]", "1", "meta",
         "Burn-rate slow trailing window"},
        {"slo[].windows", "int", "[1, 10000]", "1", "meta",
         "Absence: consecutive empty windows before firing"},
        {"expect", "list", "-", "(absent)", "meta",
         "End-of-run expectations; a failure exits bolt_cli with 3"},
        {"expect[].metric", "string", "-", "-", "meta",
         "Counter whose run delta is bounded by min/max"},
        {"expect[].min", "uint", "[0, 2^64)", "(absent)", "meta",
         "Inclusive lower bound on the counter delta"},
        {"expect[].max", "uint", "[0, 2^64)", "(absent)", "meta",
         "Inclusive upper bound on the counter delta"},
        {"expect[].slo", "enum", keys(kSloCheckKeys),
         "-", "meta", "Alert-state check against the SLO monitor"},
        {"expect[].rule", "string", "-", "-", "meta",
         "Rule name for slo: fired / not-fired"},
        {"stages", "list", "1..64 items", "-", "sim",
         "Ordered stage list (required)"},
        // Common stage keys.
        {"stages[].stage", "enum", keys(kStageKindKeys),
         "-", "sim", "Stage kind discriminator (required, first key)"},
        {"stages[].name", "string", "-", "<kind>-<index>", "meta",
         "Stage display name"},
        {"stages[].seed", "uint", "[0, 2^64)", "0", "sim",
         "Stage seed; 0 derives Rng::stream(scenario seed, {stage-"
         "phase, index})"},
        // Experiment stage.
        {"stages[].servers", "int", "[1, 100000]", "8", "sim",
         "Cluster size (experiment; armsrace defaults to 24)"},
        {"stages[].victims", "int", "[0, 1000000]", "20", "sim",
         "Victim workloads scheduled onto the cluster"},
        {"stages[].policy", "enum", keys(core::kPolicyKeys),
         "least-loaded", "sim", "Placement policy"},
        {"stages[].platform", "enum", keys(sim::kPlatformKeys),
         "vm", "sim", "Tenant packaging (Section 6)"},
        {"stages[].isolation", "enum", keys(sim::kIsolationKeys), "none",
         "sim", "Isolation ladder rung (Fig. 14)"},
        {"stages[].obfuscation", "double", "[0, 1]", "0", "sim",
         "Victim pattern-obfuscation defense amplitude"},
        {"stages[].faults", "map", "-", "(absent)", "sim",
         "Fault-injection plan; must enable at least one rate"},
        {"stages[].faults.arrivals", "double", "[0, 1]", "0", "sim",
         "P(background VM arrives) per host per round"},
        {"stages[].faults.departures", "double", "[0, 1]", "0", "sim",
         "P(victim departs) per victim per round"},
        {"stages[].faults.phase-flips", "double", "[0, 1]", "0", "sim",
         "P(victim load-pattern phase flip) per victim per round"},
        {"stages[].faults.dropouts", "double", "[0, 1]", "0", "sim",
         "P(probe sample lost) per probe"},
        {"stages[].faults.spikes", "double", "[0, 1]", "0", "sim",
         "P(probe sample takes an outlier spike) per probe"},
        {"stages[].faults.spike-mag", "double", "[0, 100]", "35",
         "sim", "Spike amplitude upper bound, pressure points"},
        {"stages[].faults.jitter", "double", "[0, 1)", "0", "sim",
         "Transient capacity-jitter amplitude"},
        {"stages[].faults.jitter-window", "double", "[0.001, 3600]",
         "20", "sim", "Jitter window length, virtual seconds"},
        {"stages[].faults.seed", "uint", "[0, 2^64)", "0", "sim",
         "Fault seed; 0 derives from the stage seed"},
        // Serve stage.
        {"stages[].loop", "enum", keys(kLoopKindKeys), "open", "sim",
         "Open-loop Poisson arrivals or closed-loop client lanes"},
        {"stages[].requests", "int", "[1, 10000000]", "1000", "sim",
         "Total requests (split across ramp segments)"},
        {"stages[].qps", "double", "[1e-06, 1e+09]", "1000", "sim",
         "Base offered QPS (open loop); ramps scale it per segment"},
        {"stages[].clients", "int", "[1, 100000]", "16", "sim",
         "Closed-loop client lanes"},
        {"stages[].think-ms", "double", "[0, 1e+06]", "4", "sim",
         "Closed-loop mean think time, sim ms"},
        {"stages[].slo-ms", "double", "[0.001, 1e+06]", "50", "sim",
         "Per-request deadline budget, sim ms"},
        {"stages[].workers", "int", "[1, 256]", "4", "sim",
         "Virtual service lanes of the sim timeline"},
        {"stages[].queue-cap", "int", "[1, 1000000]", "128", "sim",
         "Bounded request-queue capacity"},
        {"stages[].max-batch", "int", "[1, 64]", "8", "sim",
         "Micro-batch size cap (1 disables batching)"},
        {"stages[].batch-setup-ms", "double", "[0, 1000]", "2", "sim",
         "Fixed per-batch service overhead, sim ms"},
        {"stages[].batch-wait-ms", "double", "[0, 1000]", "0", "sim",
         "Optional one-shot batch-fill wait, sim ms"},
        {"stages[].admit-check", "bool", "true | false", "true", "sim",
         "SLO-aware admission control at arrival"},
        {"stages[].decompose-frac", "double", "[0, 1]", "0", "sim",
         "Fraction of requests that are decompose queries"},
        {"stages[].arrival", "map", "-", "(steady)", "sim",
         "Arrival-process shape block"},
        {"stages[].arrival.shape", "enum", keys(kArrivalShapeKeys),
         "steady", "sim",
         "QPS curve; non-steady shapes require loop: open"},
        {"stages[].arrival.segments", "int", "[1, 64]", "6", "sim",
         "Ramp resolution: back-to-back engine runs"},
        {"stages[].arrival.peak-factor", "double", "[1, 1000]", "4",
         "sim", "Flash-crowd: peak QPS / base QPS"},
        {"stages[].arrival.floor-factor", "double", "[0, 1]", "0.25",
         "sim", "Diurnal: trough QPS / base QPS"},
        // Attack stage.
        {"stages[].kind", "enum", keys(kAttackKindKeys), "-", "sim",
         "Attack campaign kind (required)"},
        {"stages[].margin", "double", "[1, 2]", "1.15", "sim",
         "DoS contention margin over the victim's pressure"},
        {"stages[].top-resources", "int", "[1, 10]", "2", "sim",
         "DoS: victim resources stressed"},
        {"stages[].duration-sec", "double", "[30, 600]", "120", "sim",
         "DoS timeline length, virtual seconds"},
        {"stages[].probes", "int", "[1, 10000]", "10", "sim",
         "Probe VMs per wave (coresidency; armsrace defaults to 4)"},
        {"stages[].waves", "int", "[1, 1000]", "8", "sim",
         "Probe waves before giving up (coresidency; armsrace "
         "defaults to 3)"},
        {"stages[].victim-vms", "int", "[1, 100]", "1", "sim",
         "Co-residency: VMs the target user runs"},
        // Fleet stage.
        {"stages[].hosts", "int", "[1, 1000000]", "64", "sim",
         "Fleet: physical hosts simulated"},
        {"stages[].tenants", "int", "[0, 10000000]", "256", "sim",
         "Fleet: tenant VMs placed at boot"},
        {"stages[].shards", "int", "[1, 4096]", "1", "sim",
         "Fleet: host partitions (cross-shard stats only; never the "
         "digest)"},
        {"stages[].epochs", "int", "[1, 10000]", "4", "sim",
         "Fleet: churn + profiling epochs to run"},
        {"stages[].arrivals", "double", "[0, 100]", "0.2", "sim",
         "Fleet: mean VM arrivals per host per epoch"},
        {"stages[].departures", "double", "[0, 1]", "0.04", "sim",
         "Fleet: per-VM per-epoch departure probability"},
        {"stages[].migrations", "double", "[0, 1]", "0.02", "sim",
         "Fleet: per-VM per-epoch migration probability"},
        {"stages[].host-faults", "double", "[0, 1]", "0", "sim",
         "Fleet: per-host per-epoch fault probability"},
        // Armsrace stage.
        {"stages[].allocator", "enum", keys(colo::kPolicyKindKeys),
         "least-loaded", "sim",
         "Armsrace: allocation policy the campaign attacks"},
        {"stages[].attacker", "enum", keys(colo::kAttackerKeys), "churn",
         "sim", "Armsrace: co-location attacker strategy"},
        {"stages[].reps", "int", "[1, 64]", "8", "sim",
         "Armsrace: independent campaigns in the cell"},
        {"stages[].utilization", "double", "[5, 90]", "50", "sim",
         "Armsrace: prefill slot-utilization percent"},
        // Include stage.
        {"stages[].path", "string", "-", "-", "sim",
         "Sub-scenario file, relative to the including file "
         "(required)"},
        {"stages[].repeat", "int", "[1, 32]", "1", "sim",
         "Run the sub-scenario this many times, distinct seeds"},
    };
    return kKeys;
}

bool
compileText(std::string_view source, std::string_view filename,
            Scenario* out, std::string* err)
{
    TextNode root;
    if (!parseText(source, filename, &root, err))
        return false;
    std::string dir =
        std::filesystem::path(filename).parent_path().string();
    CompileCtx ctx;
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(fs::path(filename), ec);
    ctx.stack.push_back(ec ? fs::path(filename).lexically_normal().string()
                           : canon.string());
    out->sourcePath = std::string(filename);
    return compileTree(root, filename, dir, &ctx, out, err);
}

bool
compileFile(const std::string& path, Scenario* out, std::string* err)
{
    std::ifstream in(path);
    if (!in) {
        *err = path + ":1: cannot open scenario file";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return compileText(buffer.str(), path, out, err);
}

bool
compileFlags(std::string_view kind, const std::vector<std::string>& flags,
             Scenario* out, std::string* err)
{
    const char* kFile = "flags";
    auto scalar = [](std::string value, int line) {
        TextNode n;
        n.line = line;
        n.scalar = std::move(value);
        return n;
    };
    auto block = [](TextNode::Kind kind, int line) {
        TextNode n;
        n.kind = kind;
        n.line = line;
        return n;
    };
    TextNode stage = block(TextNode::Kind::Map, 1);
    stage.entries.emplace_back("stage", scalar(std::string(kind), 1));
    for (size_t i = 0; i < flags.size(); i += 2) {
        int line = static_cast<int>(i / 2) + 1;
        const std::string& flag = flags[i];
        if (flag.rfind("--", 0) != 0) {
            *err = errorAt(kFile, line, "unexpected argument '" + flag +
                                            "' (flags are --key value)");
            return false;
        }
        if (i + 1 == flags.size()) {
            *err = errorAt(kFile, line,
                           "flag '" + flag + "' requires a value");
            return false;
        }
        // A value must read back from a scenario file unchanged, so the
        // dump of a flag-built stage recompiles to the same graph.
        const std::string& value = flags[i + 1];
        TextNode probe;
        std::string ignored;
        if (!parseText("v: " + value + "\n", kFile, &probe, &ignored) ||
            probe.find("v")->scalar != value) {
            *err = errorAt(kFile, line,
                           "value '" + value + "' for '" + flag +
                               "' cannot be written in a scenario file");
            return false;
        }
        // Walk the dotted key path, opening nested blocks on the way.
        TextNode* node = &stage;
        std::string_view path = std::string_view(flag).substr(2);
        for (;;) {
            size_t dot = path.find('.');
            std::string key(path.substr(0, dot));
            auto it = std::find_if(
                node->entries.begin(), node->entries.end(),
                [&key](const auto& entry) { return entry.first == key; });
            bool leaf = dot == std::string_view::npos;
            if (key.empty() ||
                (it != node->entries.end() &&
                 (leaf || it->second.kind != TextNode::Kind::Map))) {
                *err = errorAt(kFile, line,
                               "flag '" + flag +
                                   "' is malformed, repeated or "
                                   "conflicts with an earlier flag");
                return false;
            }
            if (leaf) {
                node->entries.emplace_back(key, scalar(value, line));
                break;
            }
            if (it == node->entries.end()) {
                node->entries.emplace_back(
                    key, block(TextNode::Kind::Map, line));
                it = std::prev(node->entries.end());
            }
            node = &it->second;
            path = path.substr(dot + 1);
        }
    }
    TextNode stages = block(TextNode::Kind::List, 1);
    stages.items.push_back(std::move(stage));
    TextNode root = block(TextNode::Kind::Map, 1);
    root.entries.emplace_back("scenario", scalar(std::string(kind), 1));
    root.entries.emplace_back("stages", std::move(stages));
    CompileCtx ctx;
    return compileTree(root, kFile, "", &ctx, out, err);
}

} // namespace scenario
} // namespace bolt
