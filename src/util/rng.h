#ifndef BOLT_UTIL_RNG_H
#define BOLT_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace bolt {
namespace util {

namespace detail {

/**
 * MT19937-64, seeded lazily: the output sequence of every seed is
 * std::mt19937_64's, but construction stores only the seed.
 *
 * Word k of the first block needs the seeding recurrence only up to
 * word k + 156, so the first block is produced on demand in doubling
 * chunks (16, 32, 64, 128 words, then the rest of the block), each
 * chunk seeding and twisting in one pass. Once the block is finished
 * every later block is twisted in bulk, exactly as the standard engine
 * does. A stream's first n draws thus cost about 156 + n seeding steps
 * instead of the standard engine's 312 seeding steps plus a 312-word
 * twist, and a long stream costs what the standard engine does.
 *
 * That lead-in is one serial multiply chain per stream, so prime()
 * starts up to kLanes streams side by side, overlapping their chains.
 *
 * Rng's engine; only util/rng and its tests name it.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed) { x_[0] = seed; }

    /** Copies only the words the source has defined so far. */
    Mt19937_64(const Mt19937_64& other) { *this = other; }
    Mt19937_64& operator=(const Mt19937_64& other);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Engines prime() starts at once. */
    static constexpr size_t kLanes = 8;

    /** Whether the engine has not drawn yet. */
    bool fresh() const { return ready_ == 0; }

    /**
     * Give each of up to kLanes fresh engines the state its first
     * refill() would: seed words 1 to kM + kFirstChunk - 1, the first
     * kFirstChunk words twisted. The engines' seeding chains run side
     * by side. Throws std::invalid_argument past kLanes engines.
     */
    static void prime(std::span<Mt19937_64* const> fresh);

    result_type
    operator()()
    {
        if (p_ == ready_)
            refill();
        uint64_t z = x_[p_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr size_t kN = 312; ///< State words (one block).
    static constexpr size_t kM = 156; ///< Twist offset.
    static constexpr size_t kFirstChunk = 16; ///< First refill's words.

    /** Twist the next chunk of the first block, or the next block. */
    void refill();

    /** Words of x_ set so far: the twisted ones, then seeded ones. */
    size_t defined() const;

    uint64_t x_[kN];   ///< Only [0, defined()) is ever read.
    size_t p_ = 0;     ///< Next word of the current block to temper.
    size_t ready_ = 0; ///< Words of the current block twisted so far.
};

} // namespace detail

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

    /** Streams prime() starts side by side. */
    static constexpr size_t kPrimeLanes = detail::Mt19937_64::kLanes;

    /**
     * Start every stream of `rngs` that has not drawn yet, kPrimeLanes
     * at a time side by side: the way to start many streams, since a
     * stream's start is one serial multiply chain and the chains of a
     * batch overlap. Each stream then yields exactly the words it
     * would have; streams that have drawn are left as they are.
     */
    static void prime(std::span<Rng> rngs);

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

  private:
    detail::Mt19937_64 engine_;
    uint64_t seed_;
};

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_RNG_H
