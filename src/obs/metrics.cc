#include "metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bolt {
namespace obs {

namespace {

/*
 * Flat layout tables derived from the catalog, computed once. The
 * kind-local index of a metric (counterIndex etc.) addresses the flat
 * per-shard arrays; histogram buckets live in one flat array with a
 * per-histogram offset.
 */
struct CatalogLayout
{
    MetricInfo infos[kNumMetrics];
    size_t bucketOffset[kNumHistograms + 1];

    CatalogLayout()
    {
        size_t i = 0;
#define BOLT_OBS_COUNTER(id_, name_, cls_, perShard_, help_)                 \
    infos[i] = MetricInfo{MetricId::k##id_, MetricKind::Counter, name_,      \
                          MetricClass::cls_, perShard_, 0.0, 0.0, 0, help_}; \
    ++i;
        BOLT_COUNTER_METRICS(BOLT_OBS_COUNTER)
#undef BOLT_OBS_COUNTER
#define BOLT_OBS_GAUGE(id_, name_, cls_, help_)                              \
    infos[i] = MetricInfo{MetricId::k##id_, MetricKind::Gauge, name_,        \
                          MetricClass::cls_, false, 0.0, 0.0, 0, help_};     \
    ++i;
        BOLT_GAUGE_METRICS(BOLT_OBS_GAUGE)
#undef BOLT_OBS_GAUGE
        size_t h = 0;
        size_t offset = 0;
#define BOLT_OBS_HISTOGRAM(id_, name_, cls_, lo_, hi_, bins_, help_)         \
    infos[i] = MetricInfo{MetricId::k##id_, MetricKind::Histogram, name_,    \
                          MetricClass::cls_, false, lo_, hi_, bins_, help_}; \
    ++i;                                                                     \
    bucketOffset[h] = offset;                                                \
    offset += bins_;                                                         \
    ++h;
        BOLT_HISTOGRAM_METRICS(BOLT_OBS_HISTOGRAM)
#undef BOLT_OBS_HISTOGRAM
        bucketOffset[h] = offset;
    }
};

const CatalogLayout&
layout()
{
    static const CatalogLayout instance;
    return instance;
}

size_t
counterIndex(MetricId id)
{
    return static_cast<size_t>(id);
}

size_t
gaugeIndex(MetricId id)
{
    return static_cast<size_t>(id) - kNumCounters;
}

size_t
histogramIndex(MetricId id)
{
    return static_cast<size_t>(id) - kNumCounters - kNumGauges;
}

size_t
totalBuckets()
{
    return layout().bucketOffset[kNumHistograms];
}

/** Bucket for `value`: clamped to the edge bins, NaN goes to bin 0. */
size_t
bucketFor(const MetricInfo& info, double value)
{
    if (!(value > info.lo))
        return 0;
    if (value >= info.hi)
        return info.bins - 1;
    double frac = (value - info.lo) / (info.hi - info.lo);
    size_t b = static_cast<size_t>(frac * info.bins);
    return b < info.bins ? b : info.bins - 1;
}

/**
 * Single-writer cell: only the owning thread stores, any thread may
 * load. Relaxed ordering is enough — readers merge after the owning
 * phase has joined (or accept a slightly stale in-flight value).
 */
uint64_t
cellLoad(const std::atomic<uint64_t>& c)
{
    return c.load(std::memory_order_relaxed);
}

void
cellAdd(std::atomic<uint64_t>& c, uint64_t n)
{
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

double
dcellLoad(const std::atomic<double>& c)
{
    return c.load(std::memory_order_relaxed);
}

void
dcellAdd(std::atomic<double>& c, double v)
{
    c.store(c.load(std::memory_order_relaxed) + v,
            std::memory_order_relaxed);
}

} // namespace

const MetricInfo&
metricInfo(MetricId id)
{
    assert(id < MetricId::kCount);
    return layout().infos[static_cast<size_t>(id)];
}

double
HistogramSnapshot::binCenter(size_t b) const
{
    const MetricInfo& info = metricInfo(id);
    double width = (info.hi - info.lo) / info.bins;
    return info.lo + (static_cast<double>(b) + 0.5) * width;
}

double
HistogramSnapshot::percentile(double p) const
{
    size_t b = 0;
    double within = 0.0;
    if (!percentileRank(buckets.data(), buckets.size(), count, p, &b,
                        &within))
        return std::nan(""); // documented empty-histogram sentinel
    const MetricInfo& info = metricInfo(id);
    double width = (info.hi - info.lo) / info.bins;
    return info.lo + (static_cast<double>(b) + within) * width;
}

bool
percentileRank(const uint64_t* buckets, size_t n, uint64_t count, double p,
               size_t* bucket, double* within)
{
    if (count == 0)
        return false;
    // Past every bucket (count above the bucket sum): the top edge.
    *bucket = n - 1;
    *within = 1.0;
    p = std::min(std::max(p, 0.0), 100.0);
    if (p <= 0.0) {
        for (size_t b = 0; b < n; ++b) {
            if (buckets[b]) {
                *bucket = b;
                *within = 0.0;
                return true;
            }
        }
    }
    if (p >= 100.0) {
        for (size_t b = n; b-- > 0;) {
            if (buckets[b]) {
                *bucket = b;
                return true;
            }
        }
    }
    double rank = p / 100.0 * static_cast<double>(count);
    uint64_t cum = 0;
    for (size_t b = 0; b < n; ++b) {
        if (buckets[b] == 0)
            continue;
        double below = static_cast<double>(cum);
        cum += buckets[b];
        if (static_cast<double>(cum) >= rank) {
            double frac = (rank - below) / static_cast<double>(buckets[b]);
            *bucket = b;
            *within = std::min(std::max(frac, 0.0), 1.0);
            return true;
        }
    }
    return true;
}

const CounterSnapshot&
Snapshot::counter(MetricId id) const
{
    return counters[counterIndex(id)];
}

const GaugeSnapshot&
Snapshot::gauge(MetricId id) const
{
    return gauges[gaugeIndex(id)];
}

const HistogramSnapshot&
Snapshot::histogram(MetricId id) const
{
    return histograms[histogramIndex(id)];
}

/**
 * One thread's private accumulator. Sized for the whole catalog so the
 * record path is a direct index; ~(29 + 1 + 300) cells per thread.
 */
struct MetricsRegistry::Shard
{
    std::vector<std::atomic<uint64_t>> counters;
    std::vector<std::atomic<uint64_t>> buckets;
    std::vector<std::atomic<uint64_t>> histCounts;
    std::vector<std::atomic<double>> histSums;

    Shard()
        : counters(kNumCounters), buckets(totalBuckets()),
          histCounts(kNumHistograms), histSums(kNumHistograms)
    {
        zero();
    }

    void zero()
    {
        for (auto& c : counters)
            c.store(0, std::memory_order_relaxed);
        for (auto& c : buckets)
            c.store(0, std::memory_order_relaxed);
        for (auto& c : histCounts)
            c.store(0, std::memory_order_relaxed);
        for (auto& c : histSums)
            c.store(0.0, std::memory_order_relaxed);
    }
};

MetricsRegistry::MetricsRegistry()
{
    for (size_t g = 0; g < kNumGauges; ++g) {
        gauges_[g].store(0.0, std::memory_order_relaxed);
        gaugeSet_[g].store(false, std::memory_order_relaxed);
    }
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry&
MetricsRegistry::global()
{
    // Intentionally leaked: workers of the global thread pool (destroyed
    // in static-destruction order undefined relative to this TU) record
    // into their shards with relaxed stores right up to process exit, so
    // a destructor freeing the shards here would race with them.
    static MetricsRegistry* instance = new MetricsRegistry();
    return *instance;
}

void
MetricsRegistry::addSlow(MetricId id, uint64_t n)
{
    assert(metricInfo(id).kind == MetricKind::Counter);
    cellAdd(shards_.local().counters[counterIndex(id)], n);
}

void
MetricsRegistry::observeSlow(MetricId id, double value)
{
    const MetricInfo& info = metricInfo(id);
    assert(info.kind == MetricKind::Histogram);
    size_t h = histogramIndex(id);
    Shard& shard = shards_.local();
    cellAdd(shard.buckets[layout().bucketOffset[h] + bucketFor(info, value)],
            1);
    cellAdd(shard.histCounts[h], 1);
    dcellAdd(shard.histSums[h], value);
}

void
MetricsRegistry::gaugeMaxSlow(MetricId id, double value)
{
    assert(metricInfo(id).kind == MetricKind::Gauge);
    size_t g = gaugeIndex(id);
    gaugeSet_[g].store(true, std::memory_order_relaxed);
    double cur = gauges_[g].load(std::memory_order_relaxed);
    while (value > cur &&
           !gauges_[g].compare_exchange_weak(cur, value,
                                             std::memory_order_relaxed)) {
    }
}

Snapshot
MetricsRegistry::snapshot() const
{
    auto lock = shards_.lock();
    Snapshot snap;
    snap.shards = shards_.size();

    snap.counters.resize(kNumCounters);
    for (size_t c = 0; c < kNumCounters; ++c) {
        const MetricInfo& info = layout().infos[c];
        CounterSnapshot& out = snap.counters[c];
        out.id = info.id;
        if (info.perShard)
            out.perShard.reserve(shards_.size());
        for (const auto& shard : shards_) {
            uint64_t v = cellLoad(shard->counters[c]);
            out.value += v;
            if (info.perShard)
                out.perShard.push_back(v);
        }
    }

    snap.gauges.resize(kNumGauges);
    for (size_t g = 0; g < kNumGauges; ++g) {
        GaugeSnapshot& out = snap.gauges[g];
        out.id = layout().infos[kNumCounters + g].id;
        out.value = dcellLoad(gauges_[g]);
        out.everSet = gaugeSet_[g].load(std::memory_order_relaxed);
    }

    snap.histograms.resize(kNumHistograms);
    for (size_t h = 0; h < kNumHistograms; ++h) {
        const MetricInfo& info =
            layout().infos[kNumCounters + kNumGauges + h];
        HistogramSnapshot& out = snap.histograms[h];
        out.id = info.id;
        out.buckets.assign(info.bins, 0);
        size_t base = layout().bucketOffset[h];
        for (const auto& shard : shards_) {
            for (size_t b = 0; b < info.bins; ++b)
                out.buckets[b] += cellLoad(shard->buckets[base + b]);
            out.count += cellLoad(shard->histCounts[h]);
            out.sum += dcellLoad(shard->histSums[h]);
        }
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    auto lock = shards_.lock();
    for (auto& shard : shards_)
        shard->zero();
    for (size_t g = 0; g < kNumGauges; ++g) {
        gauges_[g].store(0.0, std::memory_order_relaxed);
        gaugeSet_[g].store(false, std::memory_order_relaxed);
    }
}

} // namespace obs
} // namespace bolt
