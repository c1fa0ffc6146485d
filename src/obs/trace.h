#ifndef BOLT_OBS_TRACE_H
#define BOLT_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "shards.h"

namespace bolt {
namespace obs {

/**
 * One structured trace event. Timestamps are SIMULATED time in
 * microseconds — never wall clock — so a trace is a pure function of
 * (config, seed) and two runs of the same experiment produce the same
 * events regardless of thread count or machine load.
 */
struct TraceEvent
{
    std::string name;     ///< e.g. "detector.round"
    std::string category; ///< e.g. "detector"
    char phase = 'X';     ///< 'X' = complete span, 'i' = instant.
    int64_t tsUs = 0;     ///< Simulated-time start, microseconds.
    int64_t durUs = 0;    ///< Simulated duration (0 for instants).
    int64_t track = 0;    ///< Rendered as "tid"; we use the server id.
    int64_t round = -1;   ///< Detection round index, -1 when n/a.
    /** Extra key/value args, already stringified, insertion order. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Collects TraceEvents into per-thread shards (same single-writer
 * pattern as MetricsRegistry) and exports them sorted by content
 * (tsUs, track, name, ...) so the file bytes are deterministic at any
 * thread count. Disabled (the default), record calls are one relaxed
 * load and a branch.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** The process-wide tracer BOLT_TRACE_SPAN records to. */
    static Tracer& global();

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Record a complete span covering simulated seconds [t0, t1].
     * No-op when disabled (args must be cheap to build at call sites;
     * gate anything costly on enabled()).
     */
    void span(std::string name, std::string category, int64_t track,
              double t0Sec, double t1Sec, int64_t round = -1,
              std::vector<std::pair<std::string, std::string>> args = {})
    {
        if (enabled())
            record(std::move(name), std::move(category), 'X', t0Sec,
                   t1Sec, track, round, std::move(args));
    }

    /** Record an instant event at simulated second `tSec`. */
    void instant(std::string name, std::string category, int64_t track,
                 double tSec, int64_t round = -1,
                 std::vector<std::pair<std::string, std::string>> args = {})
    {
        if (enabled())
            record(std::move(name), std::move(category), 'i', tSec, tSec,
                   track, round, std::move(args));
    }

    /** All events merged across shards, content-sorted (deterministic). */
    std::vector<TraceEvent> sortedEvents() const;

    /**
     * Chrome trace_event JSON ({"traceEvents":[...]}): open the file in
     * chrome://tracing or https://ui.perfetto.dev. tid = track
     * (server id), ts/dur in simulated microseconds.
     */
    void writeChromeTrace(std::ostream& os) const;

    /** One JSON object per line, same fields, for jq/awk pipelines. */
    void writeJsonl(std::ostream& os) const;

    /** Drop all recorded events. Not safe against in-flight records. */
    void clear();

  private:
    struct Shard;

    void record(std::string name, std::string category, char phase,
                double t0Sec, double t1Sec, int64_t track, int64_t round,
                std::vector<std::pair<std::string, std::string>> args);

    std::atomic<bool> enabled_{false};
    ThreadShards<Shard> shards_;
};

} // namespace obs
} // namespace bolt

/**
 * Record a complete span on the global tracer:
 *   BOLT_TRACE_SPAN("detector.round", "detector", serverId, t0, t1,
 *                   round, {{"victims", "3"}});
 * The trailing args list may be omitted. Arguments are NOT evaluated
 * when tracing is disabled, so building arg strings at call sites is
 * free on the default path.
 */
#define BOLT_TRACE_SPAN(...)                                              \
    do {                                                                  \
        if (::bolt::obs::Tracer::global().enabled())                      \
            ::bolt::obs::Tracer::global().span(__VA_ARGS__);              \
    } while (0)

#endif // BOLT_OBS_TRACE_H
