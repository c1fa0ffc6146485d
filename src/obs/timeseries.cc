#include "timeseries.h"

#include "report.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>

namespace bolt {
namespace obs {

namespace {

/** Fixed-point scale for per-window value sums (2^-20 resolution).
 *  Integer accumulation keeps the cross-shard merge associative and
 *  commutative, so merged sums are bit-identical at any thread count. */
constexpr double kSumScale = 1048576.0; // 2^20

const SeriesInfo kSeriesTable[kNumSeries] = {
#define BOLT_OBS_SERIES_INFO(id_, name_, kind_, keyed_, help_)               \
    {SeriesId::k##id_, name_, SeriesKind::kind_, keyed_, help_},
    BOLT_TELEMETRY_SERIES(BOLT_OBS_SERIES_INFO)
#undef BOLT_OBS_SERIES_INFO
};

} // namespace

const SeriesInfo&
seriesInfo(SeriesId id)
{
    assert(id < SeriesId::kCount);
    return kSeriesTable[static_cast<size_t>(id)];
}

std::string
indexedLabel(char prefix, int64_t index)
{
    std::string label(1, prefix);
    label += std::to_string(index);
    return label;
}

size_t
QuantileSketch::bucketFor(double v)
{
    if (!(v >= std::ldexp(1.0, kMinExp)))
        return 0; // underflow: zero, negatives and NaN
    if (v >= std::ldexp(1.0, kMaxExp))
        return kBuckets - 1;
    int exp = 0;
    double mant = std::frexp(v, &exp); // v = mant * 2^exp, mant in [0.5, 1)
    int octave = exp - 1;              // v in [2^octave, 2^octave+1)
    // Position inside the octave: mant*2 is in [1, 2).
    size_t sub = static_cast<size_t>((mant * 2.0 - 1.0) *
                                     static_cast<double>(kSub));
    if (sub >= kSub)
        sub = kSub - 1;
    return 1 + static_cast<size_t>(octave - kMinExp) * kSub + sub;
}

double
QuantileSketch::bucketLo(size_t b)
{
    if (b == 0)
        return 0.0;
    if (b >= kBuckets - 1)
        return std::ldexp(1.0, kMaxExp);
    size_t idx = b - 1;
    int octave = kMinExp + static_cast<int>(idx / kSub);
    double frac = static_cast<double>(idx % kSub) / kSub;
    return std::ldexp(1.0 + frac, octave);
}

double
QuantileSketch::bucketHi(size_t b)
{
    if (b >= kBuckets - 1)
        return std::ldexp(2.0, kMaxExp); // finite cap for interpolation
    return bucketLo(b + 1);
}

double
QuantileSketch::percentile(double p) const
{
    size_t b = 0;
    double within = 0.0;
    if (!percentileRank(buckets.data(), kBuckets, count, p, &b, &within))
        return std::nan("");
    return bucketLo(b) + within * (bucketHi(b) - bucketLo(b));
}

/**
 * One thread's private accumulator: per series, a table of label
 * slots, each owning a preallocated ring of kTelemetryRetention cells
 * (plus a parallel sketch ring for Sample-kind series). Only the
 * owning thread writes; merges happen under the recorder mutex after
 * the recording phase.
 */
struct TimeSeriesRecorder::Shard
{
    struct Cell
    {
        int64_t window = -1; ///< -1 = never used.
        uint64_t count = 0;
        int64_t sumFp = 0; ///< Fixed-point value sum (kSumScale).
    };

    struct LabelSlot
    {
        std::string label;
        std::vector<Cell> ring;
        std::vector<QuantileSketch> sketches; ///< Empty for Counter kind.

        LabelSlot(std::string lbl, bool withSketch)
            : label(std::move(lbl)), ring(kTelemetryRetention)
        {
            if (withSketch)
                sketches.resize(kTelemetryRetention);
        }
    };

    struct SeriesShard
    {
        std::vector<LabelSlot> slots; ///< Creation order.
        std::map<std::string, size_t, std::less<>> index;
    };

    std::vector<SeriesShard> series;
    uint64_t dropped = 0;

    Shard() : series(kNumSeries)
    {
        // Unkeyed series get their single slot up front so the record
        // path never allocates for them.
        for (size_t s = 0; s < kNumSeries; ++s) {
            const SeriesInfo& info = seriesInfo(static_cast<SeriesId>(s));
            if (!info.keyed) {
                series[s].slots.emplace_back(
                    std::string(), info.kind == SeriesKind::Sample);
                series[s].index.emplace(std::string(), 0);
            }
        }
    }

    /** Find-or-create the slot for `label`, honoring the cap. */
    LabelSlot&
    slotFor(size_t s, std::string_view label, bool withSketch)
    {
        SeriesShard& ss = series[s];
        auto it = ss.index.find(label);
        if (it != ss.index.end())
            return ss.slots[it->second];
        bool overflow = label != kOverflowLabel &&
                        ss.slots.size() >= kTelemetryCardinalityCap;
        if (overflow) {
            ++dropped;
            MetricsRegistry::global().add(
                MetricId::kTelemetrySeriesDropped);
            return slotFor(s, kOverflowLabel, withSketch);
        }
        ss.slots.emplace_back(std::string(label), withSketch);
        ss.index.emplace(std::string(label), ss.slots.size() - 1);
        return ss.slots.back();
    }
};

TimeSeriesRecorder::TimeSeriesRecorder() : TimeSeriesRecorder(TelemetryConfig{})
{
}

TimeSeriesRecorder::TimeSeriesRecorder(const TelemetryConfig& cfg)
    : cfg_(cfg)
{
    assert(cfg_.windowSec > 0.0);
}

TimeSeriesRecorder::~TimeSeriesRecorder() = default;

TimeSeriesRecorder&
TimeSeriesRecorder::global()
{
    // Leaked for the same reason as MetricsRegistry::global(): pool
    // workers may record right up to process exit.
    static TimeSeriesRecorder* instance = new TimeSeriesRecorder();
    return *instance;
}

void
TimeSeriesRecorder::configure(const TelemetryConfig& cfg)
{
    assert(cfg.windowSec > 0.0);
    auto lock = shards_.lock();
    cfg_ = cfg;
    // Recorded cells belong to the old window width: drop the shards,
    // which also invalidates every thread-local cache.
    shards_.clear();
}

void
TimeSeriesRecorder::record(SeriesId id, std::string_view label, double t,
                           double value, uint64_t n, bool isSample)
{
    const SeriesInfo& info = seriesInfo(id);
    assert(info.keyed || label.empty());
    size_t s = static_cast<size_t>(id);
    Shard& shard = shards_.local();
    bool withSketch = info.kind == SeriesKind::Sample;
    Shard::LabelSlot& slot =
        info.keyed ? shard.slotFor(s, label, withSketch)
                   : shard.series[s].slots.front();

    int64_t w = t <= 0.0 ? 0
                         : static_cast<int64_t>(t / cfg_.windowSec);
    size_t r = static_cast<size_t>(w) % kTelemetryRetention;
    Shard::Cell& cell = slot.ring[r];
    if (cell.window != w) {
        cell = Shard::Cell{};
        cell.window = w;
        if (withSketch)
            slot.sketches[r] = QuantileSketch{};
    }
    cell.count += n;
    cell.sumFp += static_cast<int64_t>(std::llround(value * kSumScale));
    if (isSample && withSketch)
        slot.sketches[r].observe(value);
}

TelemetrySnapshot
TimeSeriesRecorder::snapshot() const
{
    auto lock = shards_.lock();
    TelemetrySnapshot snap;
    snap.windowSec = cfg_.windowSec;

    // Merge key: (series index, label, window) -> point index.
    std::map<std::tuple<size_t, std::string, int64_t>, size_t> merged;
    for (const auto& shard : shards_) {
        snap.seriesDropped += shard->dropped;
        for (size_t s = 0; s < kNumSeries; ++s) {
            for (const Shard::LabelSlot& slot : shard->series[s].slots) {
                for (size_t r = 0; r < slot.ring.size(); ++r) {
                    const Shard::Cell& cell = slot.ring[r];
                    if (cell.window < 0)
                        continue;
                    auto key = std::make_tuple(s, slot.label,
                                               cell.window);
                    auto [it, inserted] =
                        merged.emplace(key, snap.points.size());
                    if (inserted) {
                        SeriesPoint p;
                        p.id = static_cast<SeriesId>(s);
                        p.label = slot.label;
                        p.window = cell.window;
                        snap.points.push_back(std::move(p));
                    }
                    SeriesPoint& p = snap.points[it->second];
                    p.count += cell.count;
                    p.sum += static_cast<double>(cell.sumFp); // still fp
                    if (!slot.sketches.empty())
                        p.sketch.merge(slot.sketches[r]);
                }
            }
        }
    }
    for (SeriesPoint& p : snap.points)
        p.sum /= kSumScale;

    std::sort(snap.points.begin(), snap.points.end(),
              [](const SeriesPoint& a, const SeriesPoint& b) {
                  int c = std::strcmp(seriesInfo(a.id).name,
                                      seriesInfo(b.id).name);
                  if (c != 0)
                      return c < 0;
                  if (a.label != b.label)
                      return a.label < b.label;
                  return a.window < b.window;
              });
    return snap;
}

bool
TimeSeriesRecorder::windowPoint(SeriesId id, std::string_view label,
                                int64_t window, SeriesPoint* out) const
{
    auto lock = shards_.lock();
    size_t s = static_cast<size_t>(id);
    size_t r = window < 0
                   ? 0
                   : static_cast<size_t>(window) % kTelemetryRetention;
    bool found = false;
    SeriesPoint p;
    p.id = id;
    p.label = std::string(label);
    p.window = window;
    int64_t sumFp = 0;
    for (const auto& shard : shards_) {
        auto it = shard->series[s].index.find(label);
        if (it == shard->series[s].index.end())
            continue;
        const Shard::LabelSlot& slot = shard->series[s].slots[it->second];
        const Shard::Cell& cell = slot.ring[r];
        if (cell.window != window)
            continue;
        found = true;
        p.count += cell.count;
        sumFp += cell.sumFp;
        if (!slot.sketches.empty())
            p.sketch.merge(slot.sketches[r]);
    }
    if (found) {
        p.sum = static_cast<double>(sumFp) / kSumScale;
        *out = std::move(p);
    }
    return found;
}

uint64_t
TimeSeriesRecorder::seriesDropped() const
{
    auto lock = shards_.lock();
    uint64_t total = 0;
    for (const auto& shard : shards_)
        total += shard->dropped;
    return total;
}

void
writeTelemetryJsonl(std::ostream& os, const TelemetrySnapshot& snap)
{
    os << "{\"bolt_telemetry\":1,\"window_sec\":"
       << jsonNumber(snap.windowSec)
       << ",\"series_dropped\":" << snap.seriesDropped << "}\n";
    for (const SeriesPoint& p : snap.points) {
        const SeriesInfo& info = seriesInfo(p.id);
        os << "{\"series\":\"" << info.name << "\"";
        if (!p.label.empty())
            os << ",\"label\":\"" << p.label << "\"";
        os << ",\"window\":" << p.window << ",\"t\":"
           << jsonNumber(static_cast<double>(p.window) * snap.windowSec)
           << ",\"count\":" << p.count;
        if (info.kind == SeriesKind::Sample) {
            os << ",\"sum\":" << jsonNumber(p.sum)
               << ",\"mean\":" << jsonNumber(p.mean())
               << ",\"p50\":" << jsonNumber(p.sketch.percentile(50.0))
               << ",\"p95\":" << jsonNumber(p.sketch.percentile(95.0))
               << ",\"p99\":" << jsonNumber(p.sketch.percentile(99.0));
        }
        os << "}\n";
    }
}

} // namespace obs
} // namespace bolt
