#include "scenario/scenario.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <type_traits>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "scenario/text.h"
#include "util/digest.h"
#include "util/parse.h"
#include "workloads/catalog.h"

namespace bolt {
namespace scenario {

namespace {

constexpr int kMaxStages = 64;
constexpr int kMaxIncludeDepth = 8;

// Key tables of the obs SLO-rule vocabularies and of the telemetry
// series, expanded from the catalogs obs owns.
#define BOLT_RULE_KIND_KEY(Sym, Key) {obs::RuleKind::Sym, Key},
#define BOLT_RULE_AGG_KEY(Sym, Key) {obs::RuleAgg::Sym, Key},
#define BOLT_RULE_OP_KEY(Sym, Key) {obs::RuleOp::Sym, Key},
#define BOLT_SERIES_KEY(Sym, Key, ...) {obs::SeriesId::k##Sym, Key},
constexpr util::EnumKey<obs::RuleKind> kRuleKindKeys[] = {
    BOLT_RULE_KIND_CATALOG(BOLT_RULE_KIND_KEY)};
constexpr util::EnumKey<obs::RuleAgg> kRuleAggKeys[] = {
    BOLT_RULE_AGG_CATALOG(BOLT_RULE_AGG_KEY)};
constexpr util::EnumKey<obs::RuleOp> kRuleOpKeys[] = {
    BOLT_RULE_OP_CATALOG(BOLT_RULE_OP_KEY)};
constexpr util::EnumKey<obs::SeriesId> kSeriesKeys[] = {
    BOLT_TELEMETRY_SERIES(BOLT_SERIES_KEY)};
#undef BOLT_RULE_KIND_KEY
#undef BOLT_RULE_AGG_KEY
#undef BOLT_RULE_OP_KEY
#undef BOLT_SERIES_KEY

using util::enumKey;
using util::fmtDouble;

std::string
errorAt(std::string_view filename, int line, const std::string& message)
{
    std::ostringstream os;
    os << filename << ":" << line << ": " << message;
    return os.str();
}

// ------------------------------------------------------------ field lists
//
// Every key of every block is declared once, as one Key in the field
// lists below (topKeys, sloRuleKeys, expectKeys, stageKeys) bound to
// the struct member it fills. Three passes walk the same lists: Reader
// compiles a parsed map into the structs, Writer is dump() (and so
// graphDigest()) and Describer is schemaKeys(). So a key's spelling,
// range, default and order cannot disagree between them.
//
// A pass is a visitor with these members:
//   v(key, member)              integer, double, bool, string
//   v(key, member, table)       enum named by a util::EnumKey table
//   v.opt(key, has, member...)  key whose presence is its own flag
//   v.block(key, has, walk)     nested map (has == nullptr: always on)
//   v.list(key, items, walk)    list of item maps
//   v.branch(taken)             true when the keys under an `if` apply
// Key-selected lists (stage kinds, attack and slo kinds) sit under
// v.branch(), so Describer, whose branch() is always true, documents
// every kind while the other passes walk only the selected one.

enum KeyFlag : unsigned {
    kMeta = 1,     ///< Determinism class "meta" (default "sim").
    kRequired = 2, ///< No default; a missing scalar is an error.
    kBelowHi = 4,  ///< `hi` itself is out of range.
};

/**
 * One declared key; see the field lists below. A ranged key reads a
 * checked signed integer into any integer member; an unranged integer
 * key (a seed, a counter bound) reads a whole uint64_t.
 */
struct Key
{
    const char* key;
    const char* help;
    double lo = 0.0; ///< Range of an integer/double key; a list's
    double hi = 0.0; ///< item-count bound (hi 0: unbounded).
    unsigned flags = 0;          ///< KeyFlag bits.
    const char* shown = nullptr; ///< Default text the struct cannot say.

    bool ranged() const { return lo < hi; }
};

/** "[lo, hi]" (or "[lo, hi)"), integers in integer form. */
std::string
bracket(const Key& k, bool integral, bool open)
{
    auto num = [integral](double v) {
        return integral ? std::to_string(static_cast<long long>(v))
                        : fmtDouble(v);
    };
    std::string text = "[";
    text += num(k.lo) + ", " + num(k.hi) + (open ? ")" : "]");
    return text;
}

/** Canonical text of a scalar member (dump values and doc defaults). */
template <typename T>
std::string
text(const T& m)
{
    if constexpr (std::is_same_v<T, bool>)
        return m ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return fmtDouble(m);
    else if constexpr (std::is_same_v<T, std::string>)
        return m;
    else
        return std::to_string(m);
}

/**
 * Read pass over one parsed map: claims each key in list order and
 * parses it into its member (syntax, then inclusive range). finish()
 * rejects any key nobody claimed, listing the claimed set in claim
 * order (the fail-loudly contract of util::CliArgs, with line
 * numbers), then reads each nested block. Lists are only claimed;
 * their items carry cross-field rules (see compileTree).
 *
 * The first error wins and later claims are no-ops, so compile code
 * walks every key unconditionally and checks once. node() gives the
 * source node of any member that was present, for the line numbers of
 * explicit rule diagnostics.
 */
class Reader
{
  public:
    using Seen = std::vector<std::pair<const void*, const TextNode*>>;

    /** `seen` is shared with the reader of the enclosing map. */
    Reader(const TextNode& node, std::string_view filename,
           std::string context, Seen* seen = nullptr)
        : node_(node), filename_(filename), context_(std::move(context)),
          seen_(seen ? seen : &own_)
    {
    }

    /** With `only` set, a walk reads that key alone (a discriminator
     *  probe ahead of the real walk). */
    const char* only = nullptr;

    bool failed() const { return !error_.empty(); }
    const std::string& error() const { return error_; }
    static bool branch(bool taken) { return taken; }

    template <typename T>
    void
    operator()(const Key& k, T& m)
    {
        const TextNode* v = scalar(k, &m);
        if (!v)
            return;
        const std::string& s = v->scalar;
        std::string bad = "value '" + s + "' for '" + k.key + "' ";
        std::string out = "value " + s + " for '" + k.key +
                          "' out of range ";
        if constexpr (std::is_same_v<T, std::string>) {
            m = s;
        } else if constexpr (std::is_same_v<T, bool>) {
            if (s == "true" || s == "false")
                m = s == "true";
            else
                fail(v->line, bad + "must be true or false");
        } else if constexpr (std::is_integral_v<T>) {
            long long parsed = 0;
            if (!k.ranged()) {
                if (!parseUnranged(s, &m))
                    fail(v->line, bad + "is not an unsigned integer");
            } else if (!util::parseInt(s, &parsed)) {
                fail(v->line, bad + "is not an integer");
            } else if (parsed < k.lo || parsed > k.hi) {
                fail(v->line, out + bracket(k, true, false));
            } else {
                m = static_cast<T>(parsed);
            }
        } else {
            double parsed = 0.0;
            if (!util::parseDouble(s, &parsed))
                fail(v->line, bad + "is not a number");
            else if (parsed < k.lo || parsed > k.hi)
                fail(v->line, out + bracket(k, false, false));
            else
                m = parsed;
            if (k.flags & kBelowHi)
                belowHi_.emplace_back(k, &m);
        }
    }

    template <typename E, size_t N>
    void
    operator()(const Key& k, E& m, const util::EnumKey<E> (&table)[N])
    {
        const TextNode* v = scalar(k, &m);
        if (v && !util::enumFromKey(table, v->scalar, &m))
            fail(v->line, "value '" + v->scalar + "' for '" + k.key +
                              "' must be one of " +
                              util::enumKeyList(table));
    }

    template <typename... M>
    void
    opt(const Key& k, bool& has, M&... m)
    {
        has = !skip(k) && node_.find(k.key);
        (*this)(k, m...);
    }

    template <typename Walk>
    void
    block(const Key& k, bool* has, Walk walk)
    {
        if (const TextNode* v = claim(k, TextNode::Kind::Map))
            blocks_.push_back({k.key, v, has, walk});
    }

    template <typename Items, typename Walk>
    void
    list(const Key& k, Items& items, Walk)
    {
        if (const TextNode* v = claim(k, TextNode::Kind::List))
            seen_->emplace_back(&items, v);
    }

    /** Source node of `member`; nullptr when it was absent. */
    const TextNode*
    node(const void* member) const
    {
        for (const auto& [m, v] : *seen_)
            if (m == member)
                return v;
        return nullptr;
    }

    /**
     * Claim `key` (listed once as valid, however often claimed). The
     * node when present and of `kind`; nullptr when absent (an error if
     * required), mis-shaped, skipped by `only`, or after an error.
     */
    const TextNode*
    claim(const Key& k, TextNode::Kind kind)
    {
        if (skip(k))
            return nullptr;
        if (std::find(claimed_.begin(), claimed_.end(), k.key) ==
            claimed_.end())
            claimed_.push_back(k.key);
        const TextNode* v = failed() ? nullptr : node_.find(k.key);
        if (!v && !failed() && (k.flags & kRequired) &&
            kind == TextNode::Kind::Scalar)
            fail(node_.line, std::string("missing required key '") +
                                 k.key + "' in " + context_);
        if (!v || v->kind == kind)
            return v;
        fail(v->line, std::string("key '") + k.key + "' expects " +
                          (kind == TextNode::Kind::Scalar
                               ? "a value, not a block"
                           : kind == TextNode::Kind::Map
                               ? "an indented block, not a value"
                               : "a list, not a value"));
        return nullptr;
    }

    /**
     * Close the map: half-open bounds, then unknown keys, then each
     * nested block (read, closed and marked present in turn).
     */
    bool
    finish(std::string* err)
    {
        for (const auto& [k, m] : belowHi_)
            if (*m >= k.hi)
                fail(node(m)->line, "value " + fmtDouble(*m) + " for '" +
                                        k.key + "' out of range " +
                                        bracket(k, false, true));
        for (const auto& [key, value] : node_.entries) {
            if (std::find(claimed_.begin(), claimed_.end(), key) !=
                claimed_.end())
                continue;
            std::string valid;
            for (size_t i = 0; i < claimed_.size(); ++i)
                valid += (i ? ", " : "") + claimed_[i];
            fail(value.line, "unknown key '" + key + "' in " + context_ +
                                 " (valid: " + valid + ")");
        }
        for (const Block& b : blocks_) {
            if (failed())
                break;
            Reader in(*b.node, filename_, b.key + " block", seen_);
            b.walk(in);
            if (!in.finish(&error_))
                break;
            seen_->emplace_back(b.has, b.node);
            if (b.has)
                *b.has = true;
        }
        *err = error_;
        return !failed();
    }

    void
    fail(int line, const std::string& message)
    {
        if (error_.empty())
            error_ = errorAt(filename_, line, message);
    }

  private:
    struct Block
    {
        std::string key;
        const TextNode* node;
        bool* has;
        std::function<void(Reader&)> walk;
    };

    /** Only a uint64_t holds an unranged integer key's whole range. */
    template <typename T>
    static bool
    parseUnranged(std::string_view s, T* m)
    {
        if constexpr (std::is_same_v<T, uint64_t>)
            return util::parseUInt(s, m);
        return false;
    }

    bool skip(const Key& k) const { return only && std::strcmp(only, k.key); }

    const TextNode*
    scalar(const Key& k, const void* member)
    {
        const TextNode* v = claim(k, TextNode::Kind::Scalar);
        if (v)
            seen_->emplace_back(member, v);
        return v;
    }

    const TextNode& node_;
    std::string_view filename_;
    std::string context_;
    std::string error_;
    std::vector<std::string> claimed_;
    Seen own_;
    Seen* seen_;
    std::vector<std::pair<Key, const double*>> belowHi_;
    std::vector<Block> blocks_;
};

/** Write pass: the canonical text of dump(). */
class Writer
{
  public:
    explicit Writer(std::ostream& os) : os_(os) {}

    static bool branch(bool taken) { return taken; }

    template <typename T>
    void
    operator()(const Key& k, const T& m)
    {
        // An empty string cannot be written; absent reads back as empty.
        if constexpr (std::is_same_v<T, std::string>)
            if (m.empty())
                return;
        os_ << (lead_.empty() ? pad_ : lead_) << k.key << ": " << text(m)
            << "\n";
        lead_.clear();
    }

    template <typename E, size_t N>
    void
    operator()(const Key& k, const E& m, const util::EnumKey<E> (&table)[N])
    {
        (*this)(k, std::string(enumKey(table, m)));
    }

    template <typename... M>
    void
    opt(const Key& k, bool has, const M&... m)
    {
        if (has)
            (*this)(k, m...);
    }

    template <typename Walk>
    void
    block(const Key& k, const bool* has, Walk walk)
    {
        if (has && !*has)
            return;
        os_ << pad_ << k.key << ":\n";
        pad_ += "  ";
        walk(*this);
        pad_.resize(pad_.size() - 2);
    }

    /** Items open with "- " on their first key. */
    template <typename Items, typename Walk>
    void
    list(const Key& k, const Items& items, Walk walk)
    {
        if (items.empty())
            return;
        os_ << pad_ << k.key << ":\n";
        for (const auto& item : items) {
            lead_ = pad_ + "  - ";
            pad_ += "    ";
            walk(*this, item);
            pad_.resize(pad_.size() - 4);
        }
    }

  private:
    std::ostream& os_;
    std::string pad_;
    std::string lead_;
};

/**
 * Describe pass: one schemaKeys() row per key, its default read from a
 * default-constructed struct. A block's rows follow its own row; a
 * list's rows wait for flush(), after the rows of the map holding it.
 */
class Describer
{
  public:
    explicit Describer(std::vector<KeyDoc>* out) : out_(out) {}

    static bool branch(bool) { return true; }

    template <typename T>
    void
    operator()(const Key& k, const T& m)
    {
        if constexpr (std::is_same_v<T, std::string>)
            row(k, "string", "-", m.empty() ? "(empty)" : m);
        else if constexpr (std::is_same_v<T, bool>)
            row(k, "bool", "true | false", text(m));
        else if constexpr (std::is_integral_v<T>)
            row(k, k.ranged() ? "int" : "uint",
                k.ranged() ? bracket(k, true, false) : "[0, 2^64)", text(m));
        else
            row(k, "double", bracket(k, false, k.flags & kBelowHi), text(m));
    }

    template <typename E, size_t N>
    void
    operator()(const Key& k, const E& m, const util::EnumKey<E> (&table)[N])
    {
        row(k, "enum", util::enumKeyList(table, " | "), enumKey(table, m));
    }

    template <typename... M>
    void
    opt(Key k, bool, const M&... m)
    {
        k.shown = "(absent)";
        (*this)(k, m...);
    }

    template <typename Walk>
    void
    block(const Key& k, const bool*, Walk walk)
    {
        row(k, "map", "-", "(absent)");
        std::string outer = prefix_;
        prefix_ += std::string(k.key) + ".";
        walk(*this);
        prefix_ = outer;
    }

    template <typename Items, typename Walk>
    void
    list(const Key& k, const Items&, Walk walk)
    {
        row(k, "list",
            k.hi ? text(static_cast<int>(k.lo)) + ".." +
                       text(static_cast<int>(k.hi)) + " items"
                 : "-",
            "(absent)");
        std::string prefix = prefix_ + k.key + "[].";
        lists_.push_back([this, prefix, walk] {
            prefix_ = prefix;
            const typename Items::value_type item{};
            walk(*this, item);
        });
    }

    /** Describe the lists found so far, in the order they were found. */
    void
    flush()
    {
        for (size_t i = 0; i < lists_.size(); ++i)
            lists_[i]();
    }

  private:
    void
    row(const Key& k, const char* type, std::string range,
        std::string value)
    {
        KeyDoc doc{prefix_ + k.key,
                   type,
                   std::move(range),
                   (k.flags & kRequired) ? "-"
                   : k.shown             ? k.shown
                                         : std::move(value),
                   (k.flags & kMeta) ? "meta" : "sim",
                   k.help};
        // A key several kinds share (slo value) is one row.
        for (const KeyDoc& prev : *out_)
            if (prev.path == doc.path &&
                std::string_view(prev.help) == doc.help)
                return;
        out_->push_back(std::move(doc));
    }

    std::vector<KeyDoc>* out_;
    std::string prefix_;
    std::vector<std::function<void()>> lists_;
};

/** slo[] items: the common keys, then the keys of the rule's kind. */
template <typename V, typename S>
void
sloRuleKeys(V& v, S& r)
{
    v({"rule", "Alert name (required, unique per scenario)", 0, 0,
       kMeta | kRequired},
      r.name);
    v({"kind", "Rule evaluation strategy", 0, 0, kMeta}, r.kind,
      kRuleKindKeys);
    v({"series", "Telemetry series the rule watches (required)", 0, 0,
       kMeta | kRequired},
      r.series, kSeriesKeys);
    v({"label", "Series label; empty reads the unkeyed slot", 0, 0, kMeta},
      r.label);
    auto value = [&] {
        v({"value", "Threshold trigger / burn-rate burn factor", -1e18,
           1e18, kMeta},
          r.value);
    };
    if (v.branch(r.kind == obs::RuleKind::Threshold)) {
        v({"agg", "Threshold: per-window aggregate", 0, 0, kMeta}, r.agg,
          kRuleAggKeys);
        v({"op", "Threshold: violation direction", 0, 0, kMeta}, r.op,
          kRuleOpKeys);
        value();
        v({"sustain-windows",
           "Threshold: consecutive violating windows before firing", 1,
           10000, kMeta},
          r.sustain);
    }
    if (v.branch(r.kind == obs::RuleKind::BurnRate)) {
        v({"total-series", "Burn-rate denominator series (required)", 0, 0,
           kMeta | kRequired},
          r.totalSeries, kSeriesKeys);
        v({"total-label", "Burn-rate denominator label", 0, 0, kMeta},
          r.totalLabel);
        v({"budget", "Burn-rate: allowed bad/total fraction", 1e-9, 1,
           kMeta},
          r.budget);
        value();
        v({"short-windows", "Burn-rate fast trailing window", 1, 10000,
           kMeta},
          r.shortWindows);
        v({"long-windows", "Burn-rate slow trailing window", 1, 10000,
           kMeta},
          r.longWindows);
    }
    if (v.branch(r.kind == obs::RuleKind::Absence))
        v({"windows", "Absence: consecutive empty windows before firing", 1,
           10000, kMeta},
          r.windows);
}

/** expect[] items; which keys combine is checked in compileExpects. */
template <typename V, typename S>
void
expectKeys(V& v, S& e)
{
    v({"metric", "Counter whose run delta is bounded by min/max", 0, 0,
       kMeta},
      e.metric);
    v.opt({"min", "Inclusive lower bound on the counter delta", 0, 0, kMeta},
          e.hasMin, e.min);
    v.opt({"max", "Inclusive upper bound on the counter delta", 0, 0, kMeta},
          e.hasMax, e.max);
    v.opt({"slo", "Alert-state check against the SLO monitor", 0, 0, kMeta},
          e.hasSlo, e.slo, kSloCheckKeys);
    v({"rule", "Rule name for slo: fired / not-fired", 0, 0, kMeta},
      e.rule);
}

/**
 * stages[] items: the common keys, then the keys of the stage's kind.
 * Include resolution (path -> compiled sub-scenario) is explicit code;
 * see compileInclude.
 */
template <typename V, typename S>
void
stageKeys(V& v, S& st)
{
    v({"stage", "Stage kind discriminator (required, first key)", 0, 0,
       kRequired},
      st.kind, kStageKindKeys);
    v({"name", "Stage display name", 0, 0, kMeta, "<kind>-<index>"},
      st.name);
    v({"seed", "Stage seed; 0 derives Rng::stream(scenario seed, "
               "{stage-phase, index})"},
      st.seed);

    if (v.branch(st.kind == StageKind::Experiment)) {
        auto& e = st.experiment;
        v({"servers", "Cluster size", 1, 100000}, e.config.servers);
        v({"victims", "Victim workloads scheduled onto the cluster", 0,
           1000000},
          e.config.victims);
        v({"policy", "Placement policy"}, e.config.policy, core::kPolicyKeys);
        v({"platform", "Tenant packaging (Section 6)"}, e.platform,
          sim::kPlatformKeys);
        v({"isolation", "Isolation ladder rung (Fig. 14)"}, e.isolation,
          sim::kIsolationKeys);
        v({"obfuscation", "Victim pattern-obfuscation defense amplitude", 0,
           1},
          e.config.victimObfuscation);
        v.block({"faults",
                 "Fault-injection plan; must enable at least one rate"},
                &e.hasFaults, [&p = e.config.faults](auto& v) {
                    v({"arrivals",
                       "P(background VM arrives) per host per round", 0, 1},
                      p.arrivalProb);
                    v({"departures", "P(victim departs) per victim per round",
                       0, 1},
                      p.departureProb);
                    v({"phase-flips",
                       "P(victim load-pattern phase flip) per victim per "
                       "round",
                       0, 1},
                      p.phaseFlipProb);
                    v({"dropouts", "P(probe sample lost) per probe", 0, 1},
                      p.dropoutProb);
                    v({"spikes",
                       "P(probe sample takes an outlier spike) per probe", 0,
                       1},
                      p.spikeProb);
                    v({"spike-mag",
                       "Spike amplitude upper bound, pressure points", 0,
                       100},
                      p.spikeMagnitude);
                    v({"jitter", "Transient capacity-jitter amplitude", 0, 1,
                       kBelowHi},
                      p.capacityJitterAmp);
                    v({"jitter-window",
                       "Jitter window length, virtual seconds", 0.001, 3600},
                      p.capacityJitterWindowSec);
                    v({"seed", "Fault seed; 0 derives from the stage seed"},
                      p.seed);
                });
    }
    if (v.branch(st.kind == StageKind::Serve)) {
        auto& s = st.serve;
        auto& c = s.config;
        v({"loop", "Open-loop Poisson arrivals or closed-loop client lanes"},
          c.load.closedLoop, kLoopKeys);
        v({"requests", "Total requests (split across ramp segments)", 1,
           10000000},
          c.load.requests);
        v({"qps", "Base offered QPS (open loop); ramps scale it per segment",
           1e-6, 1e9},
          c.load.offeredQps);
        v({"clients", "Closed-loop client lanes", 1, 100000},
          c.load.clients);
        v({"think-ms", "Closed-loop mean think time, sim ms", 0, 1e6},
          c.load.thinkMs);
        v({"slo-ms", "Per-request deadline budget, sim ms", 0.001, 1e6},
          c.load.sloMs);
        v({"workers", "Virtual service lanes of the sim timeline", 1, 256},
          c.workers);
        v({"queue-cap", "Bounded request-queue capacity", 1, 1000000},
          c.queueCapacity);
        v({"max-batch", "Micro-batch size cap (1 disables batching)", 1, 64},
          c.maxBatch);
        v({"batch-setup-ms", "Fixed per-batch service overhead, sim ms", 0,
           1000},
          c.batchSetupMs);
        v({"batch-wait-ms", "Optional one-shot batch-fill wait, sim ms", 0,
           1000},
          c.batchWaitMs);
        v({"admit-check", "SLO-aware admission control at arrival"},
          c.admitSloCheck);
        v({"decompose-frac", "Fraction of requests that are decompose "
                             "queries",
           0, 1},
          c.load.decomposeFraction);
        v.block({"arrival", "Arrival-process shape block", 0, 0, 0,
                 "(steady)"},
                nullptr, [&s](auto& v) {
                    v({"shape",
                       "QPS curve; non-steady shapes require loop: open"},
                      s.shape, kArrivalShapeKeys);
                    v({"segments", "Ramp resolution: back-to-back engine runs",
                       1, 64},
                      s.segments);
                    v({"peak-factor", "Flash-crowd: peak QPS / base QPS", 1,
                       1000},
                      s.peakFactor);
                    v({"floor-factor", "Diurnal: trough QPS / base QPS", 0,
                       1},
                      s.floorFactor);
                });
    }
    if (v.branch(st.kind == StageKind::Attack)) {
        auto& a = st.attack;
        v({"kind", "Attack campaign kind (required)", 0, 0, kRequired},
          a.kind, kAttackKindKeys);
        if (v.branch(a.kind == AttackKind::Dos)) {
            v({"margin", "DoS contention margin over the victim's pressure",
               1, 2},
              a.dos.margin);
            v({"top-resources", "DoS: victim resources stressed", 1, 10},
              a.dos.topResources);
            v({"duration-sec", "DoS timeline length, virtual seconds", 30,
               600},
              a.dos.durationSec);
        }
        if (v.branch(a.kind == AttackKind::CoResidency)) {
            v({"probes", "Co-residency: probe VMs per wave", 1, 10000},
              a.coresidency.probeVms);
            v({"waves", "Co-residency: probe waves before giving up", 1,
               1000},
              a.coresidency.maxWaves);
        }
    }
    if (v.branch(st.kind == StageKind::Fleet)) {
        auto& f = st.fleet;
        v({"hosts", "Fleet: physical hosts simulated", 1, 1000000}, f.hosts);
        v({"tenants", "Fleet: tenant VMs placed at boot", 0, 10000000},
          f.tenants);
        v({"shards", "Fleet: host partitions (cross-shard stats only; never "
                     "the digest)",
           1, 4096},
          f.shards);
        v({"epochs", "Fleet: churn + profiling epochs to run", 1, 10000},
          f.epochs);
        v({"arrivals", "Fleet: mean VM arrivals per host per epoch", 0, 100},
          f.arrivalsPerHostEpoch);
        v({"departures", "Fleet: per-VM per-epoch departure probability", 0,
           1},
          f.departureProb);
        v({"migrations", "Fleet: per-VM per-epoch migration probability", 0,
           1},
          f.migrationProb);
        v({"host-faults", "Fleet: per-host per-epoch fault probability", 0,
           1},
          f.hostFaultProb);
    }
    if (v.branch(st.kind == StageKind::Armsrace)) {
        auto& a = st.armsrace;
        v({"allocator", "Armsrace: allocation policy the campaign attacks"},
          a.policies.front(), colo::kPolicyKindKeys);
        v({"attacker", "Armsrace: co-location attacker strategy"},
          a.attackers.front(), colo::kAttackerKeys);
        v({"servers", "Armsrace: cluster size", 1, 100000}, a.servers);
        v({"probes", "Armsrace: probe VMs per wave", 1, 10000},
          a.probesPerWave);
        v({"waves", "Armsrace: probe waves before the campaign gives up", 1,
           1000},
          a.waves);
        v({"reps", "Armsrace: independent campaigns in the cell", 1, 64},
          a.reps);
        v({"utilization", "Armsrace: prefill slot-utilization percent", 5,
           90},
          a.utilLevels.front());
    }
    if (v.branch(st.kind == StageKind::Detect))
        v({"family", "Detect: hidden victim's application family (a "
                     "workloads catalog name, Fig. 11)"},
          st.detect.family);
    if (v.branch(st.kind == StageKind::Include)) {
        v({"path", "Sub-scenario file, relative to the including file "
                   "(required)",
           0, 0, kRequired},
          st.includePath);
        v({"repeat", "Run the sub-scenario this many times, distinct seeds",
           1, 32},
          st.repeat);
    }
}

/**
 * Top level. `stages` is required, but its presence and item count are
 * checked after slo/expect compile (see compileTree); its Key only
 * documents them.
 */
template <typename V, typename S>
void
topKeys(V& v, S& s)
{
    v({"scenario", "Scenario name (required)", 0, 0, kMeta | kRequired},
      s.name);
    v({"description", "One-line intent shown in reports", 0, 0, kMeta},
      s.description);
    v({"seed", "Root seed; stages without a seed derive theirs from it"},
      s.seed);
    v({"slo-window-sec",
       "Telemetry window the runner forces when slo rules exist", 0.001,
       3600, kMeta},
      s.sloWindowSec);
    v.list({"slo", "Declarative SLO rules the monitor evaluates during the "
                   "run",
            0, 0, kMeta},
           s.sloRules, [](auto& v, auto& r) { sloRuleKeys(v, r); });
    v.list({"expect", "End-of-run expectations; a failure exits bolt_cli "
                      "with 3",
            0, 0, kMeta},
           s.expects, [](auto& v, auto& e) { expectKeys(v, e); });
    v.list({"stages", "Ordered stage list (required)", 1, kMaxStages,
            kRequired},
           s.stages, [](auto& v, auto& st) { stageKeys(v, st); });
}

/** Compile-time include state: the stack of files being compiled. */
struct CompileCtx
{
    std::vector<std::string> stack; ///< Canonical paths, outermost first.
    bool subError = false; ///< The error is an included file's own.
};

bool compileTree(const TextNode& root, std::string_view filename,
                 const std::string& dir, CompileCtx* ctx, Scenario* out,
                 std::string* err);

bool
compileInclude(const Reader& rd, std::string_view filename,
               const std::string& dir, CompileCtx* ctx, Stage* stage,
               std::string* err)
{
    int path_line = rd.node(&stage->includePath)->line;
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
    auto sub = std::make_shared<Scenario>();
    sub->sourcePath = resolved.string();
    ctx->stack.push_back(canon);
    bool ok = parseText(buffer.str(), resolved.string(), &sub_root, err) &&
              compileTree(sub_root, resolved.string(),
                          resolved.parent_path().string(), ctx, sub.get(),
                          err);
    ctx->stack.pop_back();
    if (!ok) {
        ctx->subError = true;
        return false;
    }
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
        obs::SloRule spec;
        {
            Reader kind(item, filename, "slo rule");
            kind.only = "kind";
            sloRuleKeys(kind, spec);
            if (kind.failed()) {
                *err = kind.error();
                return false;
            }
        }
        // Like attack stages, only the keys of the declared kind are
        // claimed, so a stray key fails loudly with the valid set; the
        // discriminator leads that set.
        Reader rd(item, filename,
                  std::string(enumKey(kRuleKindKeys, spec.kind)) +
                      " slo rule");
        rd.claim({"kind", nullptr}, TextNode::Kind::Scalar);
        sloRuleKeys(rd, spec);
        if (!rd.finish(err))
            return false;
        for (const obs::SloRule& prev : out->sloRules) {
            if (prev.name == spec.name) {
                *err = errorAt(filename, item.line,
                               "duplicate slo rule name '" + spec.name +
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
        Reader rd(item, filename, "expect item");
        expectKeys(rd, e);
        if (!rd.finish(err))
            return false;
        if (e.metric.empty() != e.hasSlo) {
            *err = errorAt(filename, item.line,
                           "expect item needs exactly one of 'metric' "
                           "or 'slo'");
            return false;
        }
        if (!e.metric.empty()) {
            if (!isCounterMetric(e.metric)) {
                *err = errorAt(filename, rd.node(&e.metric)->line,
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
                *err = errorAt(filename, rd.node(&e.rule)->line,
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
                for (const obs::SloRule& rule : out->sloRules)
                    known = known || rule.name == e.rule;
                if (!known) {
                    *err = errorAt(filename, rd.node(&e.rule)->line,
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
        Reader kind(item, filename, "stage");
        kind.only = "stage";
        stageKeys(kind, *stage);
        if (kind.failed()) {
            *err = kind.error();
            return false;
        }
    }
    std::string kind = enumKey(kStageKindKeys, stage->kind);
    stage->name = kind + "-" + std::to_string(index);

    Reader rd(item, filename, kind + " stage");
    stageKeys(rd, *stage);
    if (!rd.finish(err))
        return false;

    const ExperimentStage& e = stage->experiment;
    if (e.hasFaults && !e.config.faults.enabled()) {
        *err = errorAt(filename, rd.node(&e.hasFaults)->line,
                       "faults block enables no fault rate (set one "
                       "of: arrivals, departures, phase-flips, "
                       "dropouts, spikes, jitter)");
        return false;
    }
    const ServeStage& s = stage->serve;
    if (s.shape != ArrivalShape::Steady && s.config.load.closedLoop) {
        *err = errorAt(filename, rd.node(&s.shape)->line,
                       "arrival shape '" +
                           std::string(enumKey(kArrivalShapeKeys,
                                               s.shape)) +
                           "' requires loop: open (a closed loop "
                           "paces itself; offered QPS has no "
                           "effect)");
        return false;
    }
    const std::string& family = stage->detect.family;
    if (stage->kind == StageKind::Detect && !workloads::findFamily(family)) {
        std::string valid;
        for (const workloads::FamilyDef& f : workloads::catalog())
            valid += (valid.empty() ? "" : ", ") + f.name;
        *err = errorAt(filename, rd.node(&family)->line,
                       "unknown family '" + family +
                           "' for 'family' (valid: " + valid + ")");
        return false;
    }
    if (stage->kind == StageKind::Include)
        return compileInclude(rd, filename, dir, ctx, stage, err);
    return true;
}

bool
compileTree(const TextNode& root, std::string_view filename,
            const std::string& dir, CompileCtx* ctx, Scenario* out,
            std::string* err)
{
    Reader rd(root, filename, "top level");
    topKeys(rd, *out);
    if (!rd.finish(err))
        return false;
    if (const TextNode* slo = rd.node(&out->sloRules);
        slo && !compileSloRules(*slo, filename, out, err))
        return false;
    if (const TextNode* expect = rd.node(&out->expects);
        expect && !compileExpects(*expect, filename, out, err))
        return false;
    if (out->name.empty()) {
        *err = errorAt(filename, rd.node(&out->name)->line,
                       "scenario name must not be empty");
        return false;
    }
    const TextNode* stages = rd.node(&out->stages);
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

} // namespace

uint64_t
Scenario::graphDigest() const
{
    util::Fnv1a d;
    d.str(dump());
    for (const Stage& stage : stages)
        if (stage.sub)
            d.u64(stage.sub->graphDigest());
    return d.h;
}

std::string
Scenario::dump() const
{
    std::ostringstream os;
    Writer write(os);
    topKeys(write, *this);
    return os.str();
}

const std::vector<KeyDoc>&
schemaKeys()
{
    static const std::vector<KeyDoc> kKeys = [] {
        std::vector<KeyDoc> keys;
        Describer describe(&keys);
        const Scenario defaults;
        topKeys(describe, defaults);
        describe.flush();
        return keys;
    }();
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
    // Node line n > 0 stands for the flag flags[2n - 2]; line 0 for the
    // subcommand, i.e. the stage as a whole. Diagnostics name either.
    const char* kFile = "flags";
    auto name = [&](int line) {
        return line == 0 ? std::string(kind) : flags[2 * (line - 1)];
    };
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
    TextNode stage = block(TextNode::Kind::Map, 0);
    stage.entries.emplace_back("stage", scalar(std::string(kind), 0));
    for (size_t i = 0; i < flags.size(); i += 2) {
        int line = static_cast<int>(i / 2) + 1;
        const std::string& flag = flags[i];
        if (flag.rfind("--", 0) != 0) {
            *err = name(0) + ": unexpected argument '" + flag +
                   "' (flags are --key value)";
            return false;
        }
        if (i + 1 == flags.size()) {
            *err = flag + ": flag '" + flag + "' requires a value";
            return false;
        }
        // A value must read back from a scenario file unchanged, so the
        // dump of a flag-built stage recompiles to the same graph.
        const std::string& value = flags[i + 1];
        TextNode probe;
        std::string ignored;
        if (!parseText("v: " + value + "\n", kFile, &probe, &ignored) ||
            probe.find("v")->scalar != value) {
            *err = flag + ": value '" + value + "' for '" + flag +
                   "' cannot be written in a scenario file";
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
                *err = flag + ": flag '" + flag +
                       "' is malformed, repeated or conflicts with an "
                       "earlier flag";
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
    TextNode stages = block(TextNode::Kind::List, 0);
    stages.items.push_back(std::move(stage));
    TextNode root = block(TextNode::Kind::Map, 0);
    root.entries.emplace_back("scenario", scalar(std::string(kind), 0));
    root.entries.emplace_back("stages", std::move(stages));
    CompileCtx ctx;
    if (compileTree(root, kFile, "", &ctx, out, err))
        return true;
    // "flags:<line>: message" -> "<flag or subcommand>: message".
    std::string prefix = std::string(kFile) + ":";
    if (!ctx.subError && err->rfind(prefix, 0) == 0) {
        size_t colon = err->find(':', prefix.size());
        long long line = 0;
        if (colon != std::string::npos &&
            util::parseInt(std::string_view(*err).substr(
                               prefix.size(), colon - prefix.size()),
                           &line))
            *err = name(static_cast<int>(line)) + err->substr(colon);
    }
    return false;
}

} // namespace scenario
} // namespace bolt
