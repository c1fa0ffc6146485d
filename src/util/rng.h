#ifndef BOLT_UTIL_RNG_H
#define BOLT_UTIL_RNG_H

#include <cstdint>
#include <initializer_list>
#include <random>
#include <string_view>
#include <vector>

namespace bolt {
namespace util {

/**
 * Deterministic random number generator used by every stochastic component
 * in the simulator.
 *
 * All experiment binaries seed a single root Rng and derive independent
 * substreams from it (see substream()), so results are reproducible
 * run-to-run regardless of the order in which components draw numbers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed. */
    explicit Rng(uint64_t seed = 0x5DEECE66DULL) : engine_(seed), seed_(seed) {}

    /** The seed this stream was created with. */
    uint64_t seed() const { return seed_; }

    /**
     * Derive an independent substream keyed by a label.
     *
     * Two substreams with different labels (or indices) are statistically
     * independent of each other and of the parent stream; deriving is
     * side-effect free on the parent.
     */
    Rng substream(std::string_view label, uint64_t index = 0) const;

    /**
     * Counter-based stream derivation for parallel tasks.
     *
     * Builds an independent stream from a root seed and a path of
     * integer coordinates, e.g. stream(seed, {kPhaseDetect, server_id})
     * or stream(seed, {kPhaseInstance, server_id, victim_id}). The
     * derivation is a pure function of (seed, path) — no draws from any
     * parent stream — so tasks can derive their streams in any order on
     * any thread and results stay bit-identical regardless of thread
     * count. Distinct paths (including distinct lengths) yield
     * decorrelated streams.
     */
    static Rng stream(uint64_t seed,
                      std::initializer_list<uint64_t> path);

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /**
     * Gaussian with the given mean and standard deviation. stddev 0
     * returns `mean` and consumes the same engine draws as any other
     * stddev.
     */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * Gaussian clamped into [lo, hi].
     *
     * Used for resource-pressure noise where values must stay in [0, 100].
     */
    double clampedGaussian(double mean, double stddev, double lo, double hi);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /** Exponential with the given mean (mean = 1/lambda). */
    double exponential(double mean);

    /**
     * Lognormal parameterized by the *target* median and a shape sigma.
     * Used for service-latency draws.
     */
    double lognormal(double median, double sigma);

    /** Pick a uniformly random element index from a container size. */
    size_t index(size_t size);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * Returns weights.size() - 1 if rounding pushes past the end.
     */
    size_t weightedIndex(const std::vector<double>& weights);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<size_t> permutation(size_t n);

    /** Pick a reference to a uniformly random element. */
    template <typename T>
    const T&
    pick(const std::vector<T>& items)
    {
        return items[index(items.size())];
    }

    /** Access the underlying engine (for std:: distributions in tests). */
    std::mt19937_64& engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
    uint64_t seed_;
};

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_RNG_H
