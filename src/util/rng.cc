#include "rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace bolt {
namespace util {

namespace {

/** FNV-1a 64-bit hash over a label, used to key substreams. */
uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : s) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** SplitMix64 finalizer — decorrelates the combined seed. */
uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

Rng
Rng::substream(std::string_view label, uint64_t index) const
{
    uint64_t mixed = splitmix64(seed_ ^ fnv1a(label) ^ splitmix64(index));
    return Rng(mixed);
}

Rng
Rng::stream(uint64_t seed, std::initializer_list<uint64_t> path)
{
    // Chain a SplitMix64 finalizer over the coordinates, salting each
    // position so {1, 0} and {0, 1} (and prefixes like {1} vs {1, 0})
    // land on different streams.
    uint64_t h = splitmix64(seed ^ 0xB01709EB01709EULL);
    uint64_t pos = 1;
    for (uint64_t id : path) {
        h = splitmix64(h ^ splitmix64(id + pos * 0x9E3779B97F4A7C15ULL));
        ++pos;
    }
    return Rng(h);
}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    // A standard draw scaled by hand is what libstdc++ computes for
    // (mean, stddev), bit for bit, but it also admits stddev 0, which
    // the (mean, stddev) constructor rejects.
    std::normal_distribution<double> dist(0.0, 1.0);
    return dist(engine_) * stddev + mean;
}

double
Rng::clampedGaussian(double mean, double stddev, double lo, double hi)
{
    return std::clamp(gaussian(mean, stddev), lo, hi);
}

bool
Rng::bernoulli(double p)
{
    std::bernoulli_distribution dist(std::clamp(p, 0.0, 1.0));
    return dist(engine_);
}

double
Rng::exponential(double mean)
{
    std::exponential_distribution<double> dist(1.0 / mean);
    return dist(engine_);
}

double
Rng::lognormal(double median, double sigma)
{
    std::lognormal_distribution<double> dist(std::log(median), sigma);
    return dist(engine_);
}

size_t
Rng::index(size_t size)
{
    if (size == 0)
        throw std::invalid_argument("Rng::index on empty range");
    return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(size) - 1));
}

size_t
Rng::weightedIndex(const std::vector<double>& weights)
{
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    if (total <= 0.0 || weights.empty())
        throw std::invalid_argument("Rng::weightedIndex with no mass");
    double u = uniform(0.0, total);
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (u < acc)
            return i;
    }
    return weights.size() - 1;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    for (size_t i = n; i > 1; --i) {
        size_t j = index(i);
        std::swap(perm[i - 1], perm[j]);
    }
    return perm;
}

} // namespace util
} // namespace bolt
