#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bolt {
namespace util {

void
Summary::add(double x)
{
    samples_.push_back(x);
    dirty_ = true;
}

double
Summary::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : samples_)
        sum += x;
    return sum / static_cast<double>(samples_.size());
}

double
Summary::stddev() const
{
    size_t n = samples_.size();
    if (n < 2)
        return 0.0;
    double m = mean();
    double acc = 0.0;
    for (double x : samples_)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(n - 1));
}

double
Summary::min() const
{
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Summary::max() const
{
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Summary::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument("percentile out of [0,100]");
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
    if (sorted_.size() == 1)
        return sorted_[0];
    double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(rank));
    size_t hi = static_cast<size_t>(std::ceil(rank));
    double frac = rank - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

void
Summary::clear()
{
    samples_.clear();
    sorted_.clear();
    dirty_ = false;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Histogram: bad range or bin count");
}

void
Histogram::add(double x)
{
    double t = (x - lo_) / (hi_ - lo_);
    auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
    bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
    ++total_;
}

double
Histogram::fraction(size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(bin)) /
           static_cast<double>(total_);
}

double
Histogram::binCenter(size_t bin) const
{
    double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

void
OnlineStats::add(double x)
{
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
OnlineStats::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

Heatmap2D::Heatmap2D(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), bins_(bins),
      hits_(bins * bins, 0), totals_(bins * bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Heatmap2D: bad range or bin count");
}

size_t
Heatmap2D::cell(double v) const
{
    double t = (v - lo_) / (hi_ - lo_);
    auto bin = static_cast<long>(t * static_cast<double>(bins_));
    return static_cast<size_t>(
        std::clamp<long>(bin, 0, static_cast<long>(bins_) - 1));
}

void
Heatmap2D::add(double x, double y, bool hit)
{
    size_t idx = cell(y) * bins_ + cell(x);
    ++totals_[idx];
    if (hit)
        ++hits_[idx];
}

double
Heatmap2D::probability(size_t bx, size_t by) const
{
    size_t idx = by * bins_ + bx;
    if (totals_.at(idx) == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(hits_[idx]) /
           static_cast<double>(totals_[idx]);
}

uint64_t
Heatmap2D::observations(size_t bx, size_t by) const
{
    return totals_.at(by * bins_ + bx);
}

} // namespace util
} // namespace bolt
