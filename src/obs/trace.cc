#include "trace.h"

#include "report.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace obs {

namespace {

/** Simulated seconds -> whole microseconds (round-half-up, stable). */
int64_t
simUs(double seconds)
{
    return static_cast<int64_t>(std::llround(seconds * 1e6));
}

/**
 * Content ordering: by time, then track, then everything else that can
 * tell two events apart. Total and machine-independent, so the export
 * is byte-identical at any thread count.
 */
bool
eventLess(const TraceEvent& a, const TraceEvent& b)
{
    if (a.tsUs != b.tsUs)
        return a.tsUs < b.tsUs;
    if (a.track != b.track)
        return a.track < b.track;
    if (a.name != b.name)
        return a.name < b.name;
    if (a.phase != b.phase)
        return a.phase < b.phase;
    if (a.durUs != b.durUs)
        return a.durUs < b.durUs;
    if (a.round != b.round)
        return a.round < b.round;
    return a.args < b.args;
}

void
writeEventJson(std::ostream& os, const TraceEvent& e)
{
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
       << jsonEscape(e.category) << "\",\"ph\":\"" << e.phase
       << "\",\"ts\":" << e.tsUs;
    if (e.phase == 'X')
        os << ",\"dur\":" << e.durUs;
    os << ",\"pid\":0,\"tid\":" << e.track << ",\"args\":{";
    bool first = true;
    if (e.round >= 0) {
        os << "\"round\":" << e.round;
        first = false;
    }
    for (const auto& kv : e.args) {
        if (!first)
            os << ",";
        os << "\"" << jsonEscape(kv.first) << "\":\""
           << jsonEscape(kv.second) << "\"";
        first = false;
    }
    os << "}}";
}

} // namespace

/** One thread's private event buffer (only the owner appends). */
struct Tracer::Shard
{
    std::vector<TraceEvent> events;
};

Tracer::Tracer() = default;

Tracer::~Tracer() = default;

Tracer&
Tracer::global()
{
    // Intentionally leaked — same shutdown-order rationale as
    // MetricsRegistry::global().
    static Tracer* instance = new Tracer();
    return *instance;
}

void
Tracer::record(std::string name, std::string category, char phase,
               double t0Sec, double t1Sec, int64_t track, int64_t round,
               std::vector<std::pair<std::string, std::string>> args)
{
    TraceEvent e;
    e.name = std::move(name);
    e.category = std::move(category);
    e.phase = phase;
    e.tsUs = simUs(t0Sec);
    e.durUs = phase == 'X' ? simUs(t1Sec) - e.tsUs : 0;
    if (e.durUs < 0)
        e.durUs = 0;
    e.track = track;
    e.round = round;
    e.args = std::move(args);
    shards_.local().events.push_back(std::move(e));
}

std::vector<TraceEvent>
Tracer::sortedEvents() const
{
    std::vector<TraceEvent> all;
    {
        auto lock = shards_.lock();
        size_t total = 0;
        for (const auto& shard : shards_)
            total += shard->events.size();
        all.reserve(total);
        for (const auto& shard : shards_)
            all.insert(all.end(), shard->events.begin(),
                       shard->events.end());
    }
    std::sort(all.begin(), all.end(), eventLess);
    return all;
}

void
Tracer::writeChromeTrace(std::ostream& os) const
{
    std::vector<TraceEvent> events = sortedEvents();
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < events.size(); ++i) {
        if (i)
            os << ",";
        os << "\n";
        writeEventJson(os, events[i]);
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
Tracer::writeJsonl(std::ostream& os) const
{
    for (const TraceEvent& e : sortedEvents()) {
        writeEventJson(os, e);
        os << "\n";
    }
}

void
Tracer::clear()
{
    auto lock = shards_.lock();
    for (auto& shard : shards_)
        shard->events.clear();
}

} // namespace obs
} // namespace bolt
