#include "rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace bolt {
namespace util {

namespace detail {

namespace {

constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kSeedMult = 6364136223846793005ULL;

/** Seeding recurrence: word i from word i - 1. */
inline uint64_t
seedStep(uint64_t prev, uint64_t i)
{
    return kSeedMult * (prev ^ (prev >> 62)) + i;
}

/** The twist of words k (lo) and k + 1 (hi) into the word `far`. */
inline uint64_t
twist(uint64_t lo, uint64_t hi, uint64_t far)
{
    uint64_t y = (lo & kUpperMask) | (hi & ~kUpperMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

} // namespace

size_t
Mt19937_64::defined() const
{
    return ready_ == 0 ? 1 : std::min(ready_ + kM, kN);
}

Mt19937_64&
Mt19937_64::operator=(const Mt19937_64& other)
{
    if (this != &other) {
        std::copy_n(other.x_, other.defined(), x_);
        p_ = other.p_;
        ready_ = other.ready_;
    }
    return *this;
}

void
Mt19937_64::refill()
{
    size_t k = 0;
    if (ready_ < kN) {
        // First block. Word k needs seed words k, k + 1 and k + kM, so
        // a chunk seeds up to kM words past its end, twisting as it
        // goes. Chunks double from 16 words; past word kN - kM the
        // seeding is done and the rest of the block is twisted in one
        // pass.
        size_t end = ready_ == 0 ? kFirstChunk : 2 * ready_;
        if (end > kN - kM)
            end = kN;
        size_t seeded = defined();
        uint64_t s = x_[seeded - 1];
        for (size_t i = seeded; i < kM; ++i) // the first chunk's lead-in
            x_[i] = s = seedStep(s, i);
        for (k = ready_; k < std::min(end, kN - kM); ++k) {
            x_[k + kM] = s = seedStep(s, k + kM);
            x_[k] = twist(x_[k], x_[k + 1], s);
        }
        ready_ = end;
        if (end < kN)
            return;
    } else {
        // A later block: the standard engine's bulk twist.
        for (; k < kN - kM; ++k)
            x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
        p_ = 0;
    }
    for (; k < kN - 1; ++k)
        x_[k] = twist(x_[k], x_[k + 1], x_[k - (kN - kM)]);
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
}

void
Mt19937_64::prime(std::span<Mt19937_64* const> fresh)
{
    // refill()'s first chunk, lane by lane: the lead-in seeds words 1
    // to kM - 1, then each step seeds word k + kM and twists word k.
    // The lanes' chains are independent, so the unrolled lane loops
    // overlap their multiply latencies. Lanes past fresh.size() all
    // run on one spare engine whose words are never read.
    if (fresh.size() > kLanes)
        throw std::invalid_argument("Mt19937_64::prime past kLanes");
    Mt19937_64 spare(0);
    uint64_t* x[kLanes] = {};
    uint64_t s[kLanes] = {};
    for (size_t j = 0; j < kLanes; ++j) {
        x[j] = j < fresh.size() ? fresh[j]->x_ : spare.x_;
        s[j] = x[j][0];
    }
    for (size_t i = 1; i < kM; ++i) {
#pragma GCC unroll 8
        for (size_t j = 0; j < kLanes; ++j)
            x[j][i] = s[j] = seedStep(s[j], i);
    }
    for (size_t k = 0; k < kFirstChunk; ++k) {
#pragma GCC unroll 8
        for (size_t j = 0; j < kLanes; ++j) {
            x[j][k + kM] = s[j] = seedStep(s[j], k + kM);
            x[j][k] = twist(x[j][k], x[j][k + 1], s[j]);
        }
    }
    for (Mt19937_64* engine : fresh)
        engine->ready_ = kFirstChunk;
}

} // namespace detail

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

void
Rng::prime(std::span<Rng> rngs)
{
    detail::Mt19937_64* lanes[kPrimeLanes] = {};
    size_t n = 0;
    for (Rng& rng : rngs) {
        if (!rng.engine_.fresh())
            continue;
        lanes[n++] = &rng.engine_;
        if (n == kPrimeLanes) {
            detail::Mt19937_64::prime(lanes);
            n = 0;
        }
    }
    if (n > 0)
        detail::Mt19937_64::prime({lanes, n});
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
