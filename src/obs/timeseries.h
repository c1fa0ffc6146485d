#ifndef BOLT_OBS_TIMESERIES_H
#define BOLT_OBS_TIMESERIES_H

#include "metrics.h"
#include "shards.h"

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bolt {
namespace obs {

/*
 * The telemetry series catalog: windowed sim-time series recorded by
 * the hot producers. Like the metric catalog (metrics.h) one X-macro
 * keeps the id, wire name, kind and help string in a single place.
 *
 *   X(Id, "name", Kind, keyed, "help")
 *
 * Kind::Counter series accumulate event counts per window;
 * Kind::Sample series additionally keep a fixed-point value sum and a
 * QuantileSketch per window, so every window reports count/sum/mean
 * and p50/p95/p99. `keyed` series take a label (tenant, outcome,
 * attack mode, round index) for per-key attribution.
 */
#define BOLT_TELEMETRY_SERIES(X)                                             \
    X(ServeQueueDepth, "serve.queue_depth", Sample, false,                   \
      "Bounded-queue depth observed at each admission")                      \
    X(ServeBatchSize, "serve.batch_size", Sample, false,                     \
      "Requests per micro-batch at formation time")                          \
    X(ServeLatencyMs, "serve.latency_ms", Sample, true,                      \
      "Per-request sim latency (ms), labeled by terminal outcome")           \
    X(ServeTenantRequests, "serve.tenant_requests", Counter, true,           \
      "Requests offered per tenant (load-generator client)")                 \
    X(DetectorRoundEvents, "detector.round_events", Counter, true,           \
      "Detection rounds executed, labeled by round index")                   \
    X(DetectorRetryEvents, "detector.retry_events", Counter, true,           \
      "Backed-off re-measurement rounds, labeled by round index")            \
    X(DetectorAbstentions, "detector.abstentions", Counter, true,            \
      "Confidence-gated abstentions, labeled by round index")                \
    X(FaultEvents, "fault.events", Counter, true,                            \
      "Injected fault events, labeled by fault kind")                        \
    X(SchedMigrations, "sched.migrations", Counter, false,                   \
      "Live migrations triggered by the migration controller")               \
    X(DosVictimP99Ms, "dos.victim_p99_ms", Sample, true,                     \
      "Victim p99 latency per DoS timeline step, labeled by attack mode")    \
    X(DosHostCpuUtil, "dos.host_cpu_util", Sample, true,                     \
      "Host CPU utilization per DoS timeline step, labeled by attack mode")  \
    X(FleetUtil, "fleet.util", Sample, false,                                \
      "Mean host utilization per fleet epoch (percent)")                     \
    X(FleetShardUtil, "fleet.shard_util", Sample, true,                      \
      "Mean host utilization per fleet shard per epoch, labeled s<shard>")   \
    X(FleetChurnEvents, "fleet.churn_events", Counter, true,                 \
      "Fleet churn events per epoch, labeled by event kind")                 \
    X(ColoCoResEvents, "colo.coresidency_events", Counter, true,             \
      "Confirmed co-residency events per tournament cell, labeled by the "   \
      "allocation policy under attack")                                      \
    X(ColoAttackerLaunches, "colo.attacker_launches", Counter, true,         \
      "Attacker probe launches per tournament cell, labeled by attacker "    \
      "strategy")

enum class SeriesId : uint32_t {
#define BOLT_OBS_SERIES_ENUM(id_, ...) k##id_,
    BOLT_TELEMETRY_SERIES(BOLT_OBS_SERIES_ENUM)
#undef BOLT_OBS_SERIES_ENUM
    kCount
};

constexpr size_t kNumSeries = static_cast<size_t>(SeriesId::kCount);

enum class SeriesKind { Counter, Sample };

/** Static description of one telemetry series. */
struct SeriesInfo
{
    SeriesId id;
    const char* name; ///< Dotted wire name ("serve.latency_ms").
    SeriesKind kind;
    bool keyed; ///< Accepts a per-record label for attribution.
    const char* help;
};

/** Descriptor of a series id (O(1) table lookup). */
const SeriesInfo& seriesInfo(SeriesId id);

/**
 * A record label of a one-letter prefix and an index: "r3" (detector
 * round; "r-1" for a random focus), "c7" (serve client), "s12" (fleet
 * shard).
 */
std::string indexedLabel(char prefix, int64_t index);

/**
 * Deterministic mergeable streaming quantile sketch: a fixed-bucket
 * log-linear histogram. Buckets cover [2^kMinExp, 2^kMaxExp) in
 * octaves, each split into kSub equal linear steps (DDSketch-style
 * ~1/(2*kSub) relative resolution); one underflow bucket catches
 * everything below (including zero and negatives) and one overflow
 * bucket everything at or above the top. Because the bucket layout is
 * fixed at compile time and merge is a bucket-wise integer add, merge
 * is associative and commutative — merge order and shard partitioning
 * cannot change the result, which is what makes windowed percentiles
 * byte-identical at any thread count.
 */
class QuantileSketch
{
  public:
    static constexpr int kMinExp = -4; ///< First octave [2^-4, 2^-3).
    static constexpr int kMaxExp = 12; ///< Values >= 2^12 overflow.
    static constexpr size_t kSub = 4;  ///< Linear steps per octave.
    static constexpr size_t kBuckets =
        static_cast<size_t>(kMaxExp - kMinExp) * kSub + 2;

    uint64_t count = 0;
    std::array<uint64_t, kBuckets> buckets{};

    void observe(double v)
    {
        ++count;
        ++buckets[bucketFor(v)];
    }

    void merge(const QuantileSketch& o)
    {
        count += o.count;
        for (size_t b = 0; b < kBuckets; ++b)
            buckets[b] += o.buckets[b];
    }

    /**
     * Value at percentile `p` (clamped to [0, 100]): the rank walk
     * of HistogramSnapshot::percentile (obs::percentileRank) over this
     * sketch's bucket edges, so the sentinels match: NaN when the
     * sketch is empty, p<=0 the low edge of the first occupied bucket,
     * p>=100 the high edge of the last occupied bucket.
     */
    double percentile(double p) const;

    /** Bucket index for a value (NaN and negatives -> underflow). */
    static size_t bucketFor(double v);
    /** Inclusive low edge of bucket b (underflow reports 0). */
    static double bucketLo(size_t b);
    /** Exclusive high edge of bucket b. */
    static double bucketHi(size_t b);
};

/// Ring length: retained windows per (series, label).
inline constexpr size_t kTelemetryRetention = 256;

/**
 * Max distinct labels per keyed series per shard. Creation of a label
 * past the cap routes records into the kOverflowLabel slot and bumps
 * telemetry.series_dropped — counts are conserved, never silently
 * truncated.
 */
inline constexpr size_t kTelemetryCardinalityCap = 32;

/** Sizing knobs of a TimeSeriesRecorder (fixed while enabled). */
struct TelemetryConfig
{
    /** Sim-time window width in seconds (--telemetry-window). */
    double windowSec = 1.0;
};

/** Label that absorbs records past the cardinality cap. */
inline constexpr const char* kOverflowLabel = "__overflow__";

/** Merged per-window aggregate of one (series, label, window). */
struct SeriesPoint
{
    SeriesId id{};
    std::string label; ///< Empty for unkeyed series.
    int64_t window = 0;
    uint64_t count = 0;
    double sum = 0.0; ///< Decoded from the fixed-point shard sums.
    QuantileSketch sketch; ///< Empty for Counter-kind series.

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** A merged, export-ordered view of every retained window. */
struct TelemetrySnapshot
{
    double windowSec = 1.0;
    uint64_t seriesDropped = 0; ///< Label creations refused by the cap.
    /** Sorted by (series name, label, window) — export order. */
    std::vector<SeriesPoint> points;
};

/**
 * Windowed sim-time telemetry recorder. Fixed-width windows
 * (floor(t / windowSec)) index preallocated per-(series,label) ring
 * buffers of kTelemetryRetention windows; a cell whose stored window
 * id no longer matches is zeroed and reused, so memory is bounded for
 * runs of any length and the export covers the trailing
 * kTelemetryRetention windows of each label.
 *
 * Sharding mirrors MetricsRegistry: each thread owns a shard only it
 * writes, found through a thread-local cache after one locked lookup.
 * Per-window value sums are accumulated in fixed point (2^-20
 * resolution) and sketch buckets are integers, so the merged snapshot
 * is a sum of integers — associative and commutative — and the JSONL
 * export is byte-identical at any thread count as long as the same
 * logical records are made (per-shard label caps are the one caveat:
 * the merged view is deterministic whenever distinct labels fit the
 * cap, which the instrumented producers guarantee).
 *
 * Disabled (the default) every record call is one relaxed load and a
 * branch — telemetry observes, it never perturbs.
 *
 * Thread-safety: record calls from different threads are safe
 * concurrently. snapshot(), windowPoint() and configure() must not
 * race with in-flight record calls (call them from the decision plane
 * or between parallel phases).
 */
class TimeSeriesRecorder
{
  public:
    TimeSeriesRecorder();
    explicit TimeSeriesRecorder(const TelemetryConfig& cfg);
    ~TimeSeriesRecorder();

    TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
    TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

    /** The process-wide recorder every instrumentation site records to. */
    static TimeSeriesRecorder& global();

    /** Replace the sizing config; drops all recorded data. */
    void configure(const TelemetryConfig& cfg);
    const TelemetryConfig& config() const
    {
        return cfg_;
    }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Count `n` events at sim time `t` (unkeyed series). */
    void count(SeriesId id, double t, uint64_t n = 1)
    {
        if (enabled())
            record(id, {}, t, static_cast<double>(n), n, false);
    }

    /** Count `n` events at sim time `t` under `label`. */
    void count(SeriesId id, std::string_view label, double t,
               uint64_t n = 1)
    {
        if (enabled())
            record(id, label, t, static_cast<double>(n), n, false);
    }

    /** Record one value sample at sim time `t` (unkeyed series). */
    void sample(SeriesId id, double t, double value)
    {
        if (enabled())
            record(id, {}, t, value, 1, true);
    }

    /** Record one value sample at sim time `t` under `label`. */
    void sample(SeriesId id, std::string_view label, double t,
                double value)
    {
        if (enabled())
            record(id, label, t, value, 1, true);
    }

    /** Merge every shard into an export-ordered snapshot. */
    TelemetrySnapshot snapshot() const;

    /**
     * Merged aggregate of one (series, label, window); false when no
     * shard holds a live cell for it. This is the SloMonitor's read
     * path at window boundaries.
     */
    bool windowPoint(SeriesId id, std::string_view label, int64_t window,
                     SeriesPoint* out) const;

    /** Label creations refused by the cardinality cap so far. */
    uint64_t seriesDropped() const;

  private:
    struct Shard;

    void record(SeriesId id, std::string_view label, double t,
                double value, uint64_t n, bool isSample);

    std::atomic<bool> enabled_{false};
    TelemetryConfig cfg_; ///< configure() writes it under shards_.lock().
    ThreadShards<Shard> shards_;
};

/**
 * Write a telemetry snapshot as JSONL: one header object
 * ({"bolt_telemetry":1,...}), then one object per retained
 * (series, label, window) in export order. Sample-kind series carry
 * "sum"/"mean"/"p50"/"p95"/"p99"; Counter-kind series just "count".
 * `bolt_cli report` consumes exactly this format.
 */
void writeTelemetryJsonl(std::ostream& os, const TelemetrySnapshot& snap);

} // namespace obs
} // namespace bolt

#endif // BOLT_OBS_TIMESERIES_H
