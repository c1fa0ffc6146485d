#ifndef BOLT_OBS_MONITOR_H
#define BOLT_OBS_MONITOR_H

#include "timeseries.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace bolt {
namespace obs {

/**
 * SLO rule vocabularies, X(Sym, "key") with each enumerator's
 * scenario-file spelling: how a rule aggregates one window of its
 * series, the comparison direction of a threshold rule, and the rule
 * kind. The scenario compiler expands these into its key tables (obs
 * sits below util's lookup helpers).
 */
#define BOLT_RULE_AGG_CATALOG(X)                                               \
    X(Count, "count") X(Sum, "sum") X(Mean, "mean") X(P50, "p50")              \
        X(P95, "p95") X(P99, "p99")
#define BOLT_RULE_OP_CATALOG(X) X(Above, "above") X(Below, "below")
#define BOLT_RULE_KIND_CATALOG(X)                                              \
    X(Threshold, "threshold") X(BurnRate, "burn-rate") X(Absence, "absence")

#define BOLT_RULE_ENUMERATOR(Sym, Key) Sym,
enum class RuleAgg { BOLT_RULE_AGG_CATALOG(BOLT_RULE_ENUMERATOR) };
enum class RuleOp { BOLT_RULE_OP_CATALOG(BOLT_RULE_ENUMERATOR) };
enum class RuleKind { BOLT_RULE_KIND_CATALOG(BOLT_RULE_ENUMERATOR) };
#undef BOLT_RULE_ENUMERATOR

/**
 * One declarative SLO rule, evaluated at every closed window
 * boundary:
 *
 *  - Threshold: agg(series[label], window) `op` value for `sustain`
 *    consecutive windows fires; the first non-violating (or empty)
 *    window resolves.
 *  - BurnRate: classic multi-window budget burn. Over the trailing
 *    `shortWindows` and `longWindows`, burn = (bad/total)/budget with
 *    bad = count(series[label]) and total = count(totalSeries
 *    [totalLabel]). Fires when both burns exceed `value` (the burn
 *    threshold, typically 1), resolves when either drops back.
 *  - Absence: fires after `windows` consecutive empty windows of
 *    series[label] once it has been seen at least once; resolves as
 *    soon as data returns.
 */
struct SloRule
{
    std::string name;
    RuleKind kind = RuleKind::Threshold;
    SeriesId series{};
    std::string label; ///< Empty = the unkeyed slot.
    RuleAgg agg = RuleAgg::Mean;
    RuleOp op = RuleOp::Above;
    double value = 0.0;    ///< Threshold / burn-rate trigger.
    uint32_t sustain = 1;  ///< Threshold: consecutive violating windows.
    SeriesId totalSeries{}; ///< BurnRate denominator series.
    std::string totalLabel;
    double budget = 0.01;  ///< BurnRate: allowed bad/total fraction.
    uint32_t shortWindows = 1;
    uint32_t longWindows = 1;
    uint32_t windows = 1;  ///< Absence: empty windows before firing.
};

/** One deterministic state transition of a rule. */
struct AlertEvent
{
    std::string rule;
    bool firing = false; ///< true = fired, false = resolved.
    int64_t window = 0;  ///< Window whose evaluation transitioned.
    double t = 0.0;      ///< Window start in sim seconds.
    double value = 0.0;  ///< Aggregate that triggered the transition.
    uint32_t epoch = 1;  ///< Bumped when producer sim time rewinds.
};

/**
 * Declarative SLO monitor over the telemetry recorder. Sequential
 * timeline owners (the serve decision plane, the DoS timeline loop)
 * call advanceTo(t) as sim time progresses; every window fully closed
 * by `t` is evaluated once, in order, against the recorder's merged
 * window aggregates, emitting deterministic AlertEvents plus
 * `monitor.*` metrics and trace instants. Because evaluation happens
 * only on the decision plane and reads integer-merged window
 * aggregates, the alert timeline is a pure function of (config, seed)
 * — byte-identical at any thread count.
 *
 * A producer whose sim clock restarts (the DoS stage runs its
 * timeline once per attack mode) is detected by t moving backwards:
 * the monitor opens a new epoch and re-evaluates from the new cursor.
 *
 * Inert by default: with no rules installed, advanceTo() is one
 * relaxed load and a branch. Not thread-safe against concurrent
 * advanceTo() calls; drive it from one sequential loop at a time.
 */
class SloMonitor
{
  public:
    /** Monitor over the global recorder. */
    SloMonitor();
    /** Monitor over a specific recorder (tests). */
    explicit SloMonitor(const TimeSeriesRecorder& recorder);

    /** The process-wide monitor the producers advance. */
    static SloMonitor& global();

    /** Install rules and reset all evaluation state. */
    void setRules(std::vector<SloRule> rules);
    const std::vector<SloRule>& rules() const
    {
        return rules_;
    }

    /** Remove every rule; advanceTo() becomes inert again. */
    void clear();

    /** True when at least one rule is installed. */
    bool active() const
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Evaluate every window fully closed by sim time `t`. */
    void advanceTo(double t)
    {
        if (active())
            advanceSlow(t);
    }

    /** All state transitions so far, in evaluation order. */
    const std::vector<AlertEvent>& events() const
    {
        return events_;
    }

    /** Rules currently in the firing state. */
    size_t firingCount() const;

    /** Whether the named rule ever fired / is firing now. */
    bool everFired(std::string_view rule) const;
    bool firing(std::string_view rule) const;

  private:
    struct RuleState
    {
        uint32_t satisfied = 0; ///< Consecutive violating windows.
        uint32_t gap = 0;       ///< Absence: consecutive empty windows.
        bool seen = false;      ///< Absence: series ever had data.
        bool firing = false;
        bool everFired = false;
    };

    void advanceSlow(double t);
    void evaluateWindow(int64_t w);
    void evaluateRule(size_t i, int64_t w);
    void transition(size_t i, int64_t w, bool firing, double value);
    /** Count of series[label] in window w (0 when absent). */
    uint64_t windowCount(SeriesId id, const std::string& label,
                         int64_t w) const;

    const TimeSeriesRecorder& recorder_;
    std::atomic<bool> active_{false};
    std::vector<SloRule> rules_;
    std::vector<RuleState> states_;
    std::vector<AlertEvent> events_;
    int64_t cursor_ = 0; ///< Next window to evaluate.
    uint32_t epoch_ = 1;
};

/**
 * Write the monitor's alert events as JSONL lines (appended to the
 * telemetry dump by writeConfiguredOutputs; consumed by
 * `bolt_cli report`).
 */
void writeAlertsJsonl(std::ostream& os, const std::vector<AlertEvent>& events);

} // namespace obs
} // namespace bolt

#endif // BOLT_OBS_MONITOR_H
