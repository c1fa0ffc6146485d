#include "monitor.h"

#include "metrics.h"
#include "report.h"
#include "trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace bolt {
namespace obs {

namespace {

/** Short value rendering for trace args (deterministic, default prec). */
std::string
argNum(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

SloMonitor::SloMonitor() : recorder_(TimeSeriesRecorder::global())
{
}

SloMonitor::SloMonitor(const TimeSeriesRecorder& recorder)
    : recorder_(recorder)
{
}

SloMonitor&
SloMonitor::global()
{
    static SloMonitor* instance = new SloMonitor();
    return *instance;
}

void
SloMonitor::setRules(std::vector<SloRule> rules)
{
    rules_ = std::move(rules);
    states_.assign(rules_.size(), RuleState{});
    events_.clear();
    cursor_ = 0;
    epoch_ = 1;
    active_.store(!rules_.empty(), std::memory_order_relaxed);
}

void
SloMonitor::clear()
{
    setRules({});
}

void
SloMonitor::advanceSlow(double t)
{
    double windowSec = recorder_.config().windowSec;
    int64_t wEnd =
        t <= 0.0 ? 0 : static_cast<int64_t>(t / windowSec);
    if (wEnd < cursor_) {
        // Producer sim time rewound: a new pass over the same window
        // range (e.g. the DoS stage's second attack mode). Open a new
        // epoch and restart the transient counters; firing alerts keep
        // their state until evidence resolves them.
        ++epoch_;
        cursor_ = wEnd;
        for (RuleState& s : states_) {
            s.satisfied = 0;
            s.gap = 0;
        }
        return;
    }
    while (cursor_ < wEnd)
        evaluateWindow(cursor_++);
}

void
SloMonitor::evaluateWindow(int64_t w)
{
    MetricsRegistry::global().add(MetricId::kMonitorWindowsEvaluated);
    for (size_t i = 0; i < rules_.size(); ++i)
        evaluateRule(i, w);
}

uint64_t
SloMonitor::windowCount(SeriesId id, const std::string& label,
                        int64_t w) const
{
    if (w < 0)
        return 0;
    SeriesPoint p;
    return recorder_.windowPoint(id, label, w, &p) ? p.count : 0;
}

void
SloMonitor::evaluateRule(size_t i, int64_t w)
{
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];

    switch (rule.kind) {
    case RuleKind::Threshold: {
        SeriesPoint p;
        bool have = recorder_.windowPoint(rule.series, rule.label, w, &p);
        double v = std::nan("");
        if (have) {
            switch (rule.agg) {
            case RuleAgg::Count:
                v = static_cast<double>(p.count);
                break;
            case RuleAgg::Sum:
                v = p.sum;
                break;
            case RuleAgg::Mean:
                v = p.mean();
                break;
            case RuleAgg::P50:
                v = p.sketch.percentile(50.0);
                break;
            case RuleAgg::P95:
                v = p.sketch.percentile(95.0);
                break;
            case RuleAgg::P99:
                v = p.sketch.percentile(99.0);
                break;
            }
        }
        bool violated = have && (rule.op == RuleOp::Above ? v > rule.value
                                                          : v < rule.value);
        if (violated) {
            ++state.satisfied;
            if (!state.firing && state.satisfied >= rule.sustain)
                transition(i, w, true, v);
        } else {
            state.satisfied = 0;
            if (state.firing)
                transition(i, w, false, have ? v : 0.0);
        }
        break;
    }
    case RuleKind::BurnRate: {
        auto burn = [&](uint32_t span) {
            uint64_t bad = 0, total = 0;
            for (int64_t x = w - static_cast<int64_t>(span) + 1; x <= w;
                 ++x) {
                bad += windowCount(rule.series, rule.label, x);
                total += windowCount(rule.totalSeries, rule.totalLabel, x);
            }
            if (total == 0)
                return 0.0;
            double rate = static_cast<double>(bad) /
                          static_cast<double>(total);
            return rate / rule.budget;
        };
        double burnShort = burn(rule.shortWindows);
        double burnLong = burn(rule.longWindows);
        bool violated = burnShort > rule.value && burnLong > rule.value;
        if (violated && !state.firing)
            transition(i, w, true, burnShort);
        else if (!violated && state.firing)
            transition(i, w, false, burnShort);
        break;
    }
    case RuleKind::Absence: {
        SeriesPoint p;
        bool have = recorder_.windowPoint(rule.series, rule.label, w, &p);
        if (have) {
            state.seen = true;
            state.gap = 0;
            if (state.firing)
                transition(i, w, false, 0.0);
        } else if (state.seen) {
            ++state.gap;
            if (!state.firing && state.gap >= rule.windows)
                transition(i, w, true,
                           static_cast<double>(state.gap));
        }
        break;
    }
    }
}

void
SloMonitor::transition(size_t i, int64_t w, bool firing, double value)
{
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    state.firing = firing;
    if (firing)
        state.everFired = true;

    double windowSec = recorder_.config().windowSec;
    AlertEvent ev;
    ev.rule = rule.name;
    ev.firing = firing;
    ev.window = w;
    ev.t = static_cast<double>(w) * windowSec;
    ev.value = value;
    ev.epoch = epoch_;
    events_.push_back(std::move(ev));

    MetricsRegistry::global().add(firing ? MetricId::kMonitorAlertsFired
                                         : MetricId::kMonitorAlertsResolved);
    Tracer& tracer = Tracer::global();
    if (tracer.enabled()) {
        tracer.instant("monitor.alert", "monitor", 0,
                       static_cast<double>(w) * windowSec, -1,
                       {{"rule", rule.name},
                        {"state", firing ? "firing" : "resolved"},
                        {"value", argNum(value)}});
    }
}

size_t
SloMonitor::firingCount() const
{
    size_t n = 0;
    for (const RuleState& s : states_)
        if (s.firing)
            ++n;
    return n;
}

bool
SloMonitor::everFired(std::string_view rule) const
{
    for (size_t i = 0; i < rules_.size(); ++i)
        if (rules_[i].name == rule)
            return states_[i].everFired;
    return false;
}

bool
SloMonitor::firing(std::string_view rule) const
{
    for (size_t i = 0; i < rules_.size(); ++i)
        if (rules_[i].name == rule)
            return states_[i].firing;
    return false;
}

void
writeAlertsJsonl(std::ostream& os, const std::vector<AlertEvent>& events)
{
    for (const AlertEvent& ev : events) {
        os << "{\"alert\":\"" << ev.rule << "\",\"state\":\""
           << (ev.firing ? "firing" : "resolved")
           << "\",\"window\":" << ev.window
           << ",\"t\":" << jsonNumber(ev.t)
           << ",\"value\":" << jsonNumber(ev.value)
           << ",\"epoch\":" << ev.epoch << "}\n";
    }
}

} // namespace obs
} // namespace bolt
