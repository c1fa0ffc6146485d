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

} // namespace util
} // namespace bolt
