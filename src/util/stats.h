#ifndef BOLT_UTIL_STATS_H
#define BOLT_UTIL_STATS_H

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace bolt {
namespace util {

/**
 * Accumulates samples and answers summary-statistic queries.
 *
 * Samples are stored; percentile queries sort lazily. This is the workhorse
 * behind every latency/accuracy report in the benchmark harness.
 */
class Summary
{
  public:
    Summary() = default;

    /** Add one sample. */
    void add(double x);

    /** Number of samples so far. */
    size_t count() const { return samples_.size(); }

    double mean() const;
    double stddev() const;

    /**
     * Inclusive linear-interpolation percentile, p in [0, 100].
     * p=50 is the median; p=99 the tail the paper reports.
     */
    double percentile(double p) const;

    /** All raw samples in insertion order. */
    const std::vector<double>& samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_ = false;
};

/**
 * 2-D binned accumulator of a boolean outcome — produces the probability
 * heatmaps of Fig. 2 (P(app == memcached | pressure_x, pressure_y)).
 */
class Heatmap2D
{
  public:
    Heatmap2D(double lo, double hi, size_t bins);

    /** Record one observation at (x, y) with a boolean outcome. */
    void add(double x, double y, bool hit);

    size_t bins() const { return bins_; }

    /** P(hit) in cell (bx, by); NaN when the cell is empty. */
    double probability(size_t bx, size_t by) const;

  private:
    size_t cell(double v) const;

    double lo_, hi_;
    size_t bins_;
    std::vector<uint64_t> hits_;
    std::vector<uint64_t> totals_;
};

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_STATS_H
