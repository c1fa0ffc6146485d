/**
 * @file
 * Unit tests for the util library: RNG determinism and substreams,
 * the lazily seeded engine and its batch priming against
 * std::mt19937_64, summary
 * statistics, histograms, online stats, 2-D heatmaps, the ASCII
 * table/series renderers, and the thread pool's parallelFor.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bolt::util;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniform() == b.uniform() ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamIsIndependentOfParentDraws)
{
    Rng parent(7);
    Rng sub1 = parent.substream("alpha");
    parent.uniform(); // advancing the parent must not change substreams
    Rng sub2 = Rng(7).substream("alpha");
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(sub1.uniform(), sub2.uniform());
}

TEST(Rng, SubstreamsWithDifferentLabelsDiffer)
{
    Rng parent(7);
    Rng a = parent.substream("alpha");
    Rng b = parent.substream("beta");
    Rng c = parent.substream("alpha", 1);
    EXPECT_NE(a.uniform(), b.uniform());
    EXPECT_NE(Rng(7).substream("alpha").uniform(), c.uniform());
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(2.0, 5.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ClampedGaussianStaysInBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.clampedGaussian(50.0, 40.0, 0.0, 100.0);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    Summary stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, GaussianZeroStddevReturnsMeanAndKeepsTheStream)
{
    Rng flat(13), unit(13);
    EXPECT_EQ(flat.gaussian(3.5, 0.0), 3.5);
    unit.gaussian(3.5, 1.0);
    EXPECT_EQ(flat.uniform(), unit.uniform());
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0]);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexThrowsOnZeroMass)
{
    Rng rng(1);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_THROW(rng.weightedIndex(weights), std::invalid_argument);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(17);
    auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (size_t v : perm) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, IndexThrowsOnEmpty)
{
    Rng rng(1);
    EXPECT_THROW(rng.index(0), std::invalid_argument);
}

// ------------------------------------------- engine vs std::mt19937_64

namespace {

/** 0, 1, 2^64 - 1 and Rng's default seed, then 1000 random seeds. */
std::vector<uint64_t>
engineSeeds()
{
    std::vector<uint64_t> seeds = {0, 1, ~uint64_t{0}, 0x5DEECE66DULL};
    std::mt19937_64 pick(20170408);
    for (int i = 0; i < 1000; ++i)
        seeds.push_back(pick());
    return seeds;
}

/**
 * Draw counts on every side of every boundary of the lazy engine: its
 * first-block chunk edges (16, 32, 64, 128), word 156 (where the
 * seeding ends), and the first two block ends.
 */
const size_t kBoundaryDraws[] = {1,   15,  16,  17,  31,  32,  33,  63,
                                 64,  65,  127, 128, 129, 155, 156, 157,
                                 311, 312, 313, 623, 624, 625};

/** Rng's methods as Rng writes them, over std::mt19937_64. */
struct StdRng
{
    explicit StdRng(uint64_t seed) : engine(seed) {}

    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
    }
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(0.0, 1.0)(engine) * stddev +
               mean;
    }
    double
    clampedGaussian(double mean, double stddev, double lo, double hi)
    {
        return std::clamp(gaussian(mean, stddev), lo, hi);
    }
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(engine);
    }
    double
    exponential(double mean)
    {
        return std::exponential_distribution<double>(1.0 / mean)(engine);
    }
    double
    lognormal(double median, double sigma)
    {
        return std::lognormal_distribution<double>(std::log(median),
                                                   sigma)(engine);
    }
    size_t
    index(size_t size)
    {
        return static_cast<size_t>(
            uniformInt(0, static_cast<int64_t>(size) - 1));
    }
    size_t
    weightedIndex(const std::vector<double>& weights)
    {
        double u = uniform(0.0,
                           std::accumulate(weights.begin(), weights.end(),
                                           0.0));
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (u < acc)
                return i;
        }
        return weights.size() - 1;
    }
    std::vector<size_t>
    permutation(size_t n)
    {
        std::vector<size_t> perm(n);
        std::iota(perm.begin(), perm.end(), size_t{0});
        for (size_t i = n; i > 1; --i)
            std::swap(perm[i - 1], perm[index(i)]);
        return perm;
    }

    std::mt19937_64 engine;
};

/** The next engine word: the full int64 range maps words one to one. */
template <typename R>
uint64_t
word(R& rng)
{
    return static_cast<uint64_t>(rng.uniformInt(INT64_MIN, INT64_MAX));
}

/** Rngs on seeds [first, first + n) of engineSeeds(), primed. */
std::vector<Rng>
primedRngs(size_t first, size_t n)
{
    std::vector<uint64_t> seeds = engineSeeds();
    std::vector<Rng> rngs;
    for (size_t i = 0; i < n; ++i)
        rngs.emplace_back(seeds[first + i]);
    Rng::prime(rngs);
    return rngs;
}

/**
 * One call of Rng's method `op` (0-10) on `rng`, as doubles, so a
 * script can run the same calls on Rng and on StdRng.
 */
template <typename R>
std::vector<double>
callMethod(R& rng, unsigned op)
{
    static const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25};
    switch (op) {
    case 0:
        return {rng.uniform(0.0, 1.0)};
    case 1:
        return {rng.uniform(-3.0, 7.5)};
    case 2:
        return {static_cast<double>(rng.uniformInt(-5, 1000000007))};
    case 3:
        return {rng.gaussian(2.0, 3.0)};
    case 4:
        return {rng.clampedGaussian(50.0, 30.0, 0.0, 100.0)};
    case 5:
        return {rng.bernoulli(0.3) ? 1.0 : 0.0};
    case 6:
        return {rng.exponential(4.0)};
    case 7:
        return {rng.lognormal(2.0, 0.5)};
    case 8:
        return {static_cast<double>(rng.index(17))};
    case 9:
        return {static_cast<double>(rng.weightedIndex(weights))};
    default: {
        std::vector<size_t> perm = rng.permutation(9);
        return {perm.begin(), perm.end()};
    }
    }
}

} // namespace

TEST(Mt19937_64, MatchesStdEngineAtEveryBoundaryForEverySeed)
{
    for (uint64_t seed : engineSeeds()) {
        for (size_t n : kBoundaryDraws) {
            detail::Mt19937_64 lazy(seed);
            std::mt19937_64 ref(seed);
            for (size_t d = 0; d < n; ++d)
                ASSERT_EQ(lazy(), ref())
                    << "seed " << seed << ", draw " << d << " of " << n;
        }
    }
}

TEST(Mt19937_64, TenThousandthOutputIsTheStandardsValue)
{
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed mt19937_64 (seed 5489) produces this value.
    detail::Mt19937_64 engine(5489);
    for (int i = 1; i < 10000; ++i)
        engine();
    EXPECT_EQ(engine(), 9981545732273789042ULL);
}

TEST(Mt19937_64, CopyContinuesLikeTheOriginalFromEveryBoundary)
{
    std::vector<size_t> stops = {0};
    stops.insert(stops.end(), std::begin(kBoundaryDraws),
                 std::end(kBoundaryDraws));
    for (uint64_t seed : {uint64_t{0}, uint64_t{0x5DEECE66DULL}}) {
        for (size_t n : stops) {
            detail::Mt19937_64 original(seed);
            std::mt19937_64 ref(seed);
            for (size_t d = 0; d < n; ++d)
                ASSERT_EQ(original(), ref());
            detail::Mt19937_64 copy(original);
            // Assignment over an engine already deep in its own stream.
            detail::Mt19937_64 assigned(~seed);
            for (int d = 0; d < 700; ++d)
                assigned();
            assigned = copy;
            for (int d = 0; d < 700; ++d) {
                uint64_t want = ref();
                ASSERT_EQ(original(), want) << "stop " << n << ", +" << d;
                ASSERT_EQ(copy(), want) << "stop " << n << ", +" << d;
                ASSERT_EQ(assigned(), want) << "stop " << n << ", +" << d;
            }
        }
    }
}

TEST(Rng, CopyMidFirstBlockContinuesLikeTheOriginal)
{
    Rng original = Rng::stream(21, {1, 2});
    for (int i = 0; i < 20; ++i) // 20 draws: inside the second chunk
        original.uniform();
    Rng copy = original;
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(copy.uniform(), original.uniform()) << i;
}

TEST(Rng, EveryMethodMatchesAStdEngineReplica)
{
    // Interleaved calls start each method at many engine offsets, the
    // chunk and block boundaries among them (a seed's 400 calls draw
    // about 800 words), on an unprimed and a primed replica.
    std::vector<uint64_t> seeds = engineSeeds();
    seeds.resize(64);
    seeds.push_back(Rng::stream(7, {3, 4}).seed());
    seeds.push_back(Rng(7).substream("alpha", 2).seed());
    std::vector<Rng> primed(seeds.begin(), seeds.end());
    Rng::prime(primed); // eight full batches and a tail of two
    std::mt19937_64 script(99);
    for (size_t i = 0; i < seeds.size(); ++i) {
        Rng rng(seeds[i]);
        StdRng ref(seeds[i]);
        for (int call = 0; call < 400; ++call) {
            unsigned op = static_cast<unsigned>(script() % 11);
            std::vector<double> want = callMethod(ref, op);
            ASSERT_EQ(callMethod(rng, op), want) << "op " << op;
            ASSERT_EQ(callMethod(primed[i], op), want) << "op " << op;
        }
    }
}

TEST(Rng, PrimedBatchesMatchTheStdEngine)
{
    // Empty, short and full batches, and full ones with a short tail;
    // each stream then draws to either side of the first chunk's end,
    // the second chunk's, the seeding's, and into the second block.
    const size_t kDraws[] = {1, 15, 16, 17, 31, 32, 33, 156, 157, 400};
    std::vector<uint64_t> seeds = engineSeeds();
    for (size_t n = 0; n <= 17; ++n) {
        for (size_t draws : kDraws) {
            std::vector<Rng> rngs = primedRngs(n, n);
            for (size_t i = 0; i < n; ++i) {
                StdRng ref(seeds[n + i]);
                for (size_t d = 0; d < draws; ++d)
                    ASSERT_EQ(word(rngs[i]), word(ref))
                        << "batch of " << n << ", stream " << i
                        << ", draw " << d;
            }
        }
    }
}

TEST(Rng, CopyRightAfterPrimingContinuesLikeTheOriginal)
{
    std::vector<uint64_t> seeds = engineSeeds();
    std::vector<Rng> rngs = primedRngs(0, 11);
    for (size_t i = 0; i < rngs.size(); ++i) {
        Rng copy = rngs[i];
        // Assignment over a stream already deep in its own words.
        Rng assigned(~seeds[i]);
        for (int d = 0; d < 700; ++d)
            word(assigned);
        assigned = rngs[i];
        StdRng ref(seeds[i]);
        for (int d = 0; d < 400; ++d) {
            uint64_t want = word(ref);
            ASSERT_EQ(word(rngs[i]), want) << "stream " << i << ", " << d;
            ASSERT_EQ(word(copy), want) << "stream " << i << ", " << d;
            ASSERT_EQ(word(assigned), want) << "stream " << i << ", " << d;
        }
    }
}

TEST(Rng, PrimeLeavesStreamsThatDrewAsTheyAre)
{
    // Streams that drew inside and at the end of the first chunk, past
    // the seeding and in the second block, between fresh ones.
    const size_t kDrawn[] = {0, 1, 0, 15, 16, 0, 17, 200, 0, 400, 0, 0};
    std::vector<uint64_t> seeds = engineSeeds();
    std::vector<Rng> rngs;
    std::vector<StdRng> refs;
    for (size_t i = 0; i < std::size(kDrawn); ++i) {
        rngs.emplace_back(seeds[i]);
        refs.emplace_back(seeds[i]);
        for (size_t d = 0; d < kDrawn[i]; ++d)
            ASSERT_EQ(word(rngs[i]), word(refs[i]));
    }
    Rng::prime(rngs);
    for (size_t i = 0; i < rngs.size(); ++i)
        for (int d = 0; d < 400; ++d)
            ASSERT_EQ(word(rngs[i]), word(refs[i]))
                << "stream " << i << " after " << kDrawn[i] << ", " << d;
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, PercentileInterpolates)
{
    Summary s;
    for (double x : {10.0, 20.0, 30.0, 40.0, 50.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
}

TEST(Summary, PercentileAfterMoreSamples)
{
    Summary s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 1.0);
    s.add(3.0);
    // The lazily-sorted cache must refresh when samples change.
    EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
}

TEST(Summary, EmptyBehaviour)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(std::isnan(s.percentile(50)));
    EXPECT_THROW(s.percentile(-1), std::invalid_argument);
}

TEST(Summary, SingleSampleStatistics)
{
    Summary s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0); // n < 2: undefined -> 0
    // Every percentile of a single sample is that sample.
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.5);
}

TEST(Summary, AllEqualSamples)
{
    Summary s;
    for (double x : {4.0, 4.0, 4.0, 4.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    // Interpolation between equal neighbors must not drift.
    for (double p : {0.0, 10.0, 33.3, 50.0, 90.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 4.0);
}

TEST(Summary, PercentileBoundsChecked)
{
    Summary s;
    for (double x : {1.0, 2.0})
        s.add(x);
    EXPECT_THROW(s.percentile(-0.001), std::invalid_argument);
    EXPECT_THROW(s.percentile(100.001), std::invalid_argument);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 2.0);
}

TEST(Heatmap2D, ProbabilityPerCell)
{
    Heatmap2D h(0.0, 100.0, 4);
    h.add(10.0, 10.0, true);
    h.add(10.0, 10.0, false);
    h.add(90.0, 90.0, true);
    EXPECT_DOUBLE_EQ(h.probability(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(h.probability(3, 3), 1.0);
    EXPECT_TRUE(std::isnan(h.probability(1, 1)));
}

TEST(AsciiTable, RendersAlignedRows)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("|"), std::string::npos);
}

TEST(AsciiTable, RejectsMismatchedRow)
{
    AsciiTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(AsciiTable, NumberFormatting)
{
    EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::percent(0.875, 1), "87.5%");
}

TEST(Series, PrintAndCsv)
{
    Series s1{"acc", {1, 2, 3}, {90, 80, 70}};
    Series s2{"chars", {1, 2, 3}, {95, 92, 88}};
    std::ostringstream os;
    printSeries(os, "title", "x", {s1, s2}, 0);
    EXPECT_NE(os.str().find("title"), std::string::npos);
    EXPECT_NE(os.str().find("acc"), std::string::npos);
}

TEST(AsciiHeatmap, RendersScale)
{
    AsciiHeatmap hm("t", "x", "y");
    std::ostringstream os;
    hm.print(os, 3, [](size_t bx, size_t by) {
        return (bx + by) / 4.0;
    });
    EXPECT_NE(os.str().find("t"), std::string::npos);
}

namespace {

constexpr unsigned kPoolWorkers = 4;

/** Sizes the global pool for one test and restores the default after. */
struct PoolWorkers
{
    explicit PoolWorkers(unsigned n) { ThreadPool::setGlobalThreads(n); }
    ~PoolWorkers() { ThreadPool::setGlobalThreads(0); }
};

/** Run parallelFor over [0, n) and fail unless each index ran once. */
void
expectEachIndexOnce(size_t n, size_t grain)
{
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits)
        h.store(0);
    parallelFor(0, n, [&](size_t i) { hits[i].fetch_add(1); }, grain);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(1, hits[i].load()) << "n " << n << " grain " << grain
                                     << " index " << i;
}

} // namespace

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    PoolWorkers workers(kPoolWorkers);
    expectEachIndexOnce(2003, 0);
}

TEST(ThreadPool, EveryRangeSizeRunsEachIndexOnce)
{
    // Empty ranges, fewer indices than workers, a few chunks per worker
    // and many, at the grain rule's pick and at one index per chunk.
    PoolWorkers workers(kPoolWorkers);
    for (size_t grain : {size_t{0}, size_t{1}}) {
        for (size_t n = 0; n <= 3 * kPoolWorkers; ++n)
            expectEachIndexOnce(n, grain);
        expectEachIndexOnce(10007, grain);
    }
}

TEST(ThreadPool, UnevenChunksAllRun)
{
    // One chunk is 1000x slower than the rest; with grain 1 the other
    // threads keep claiming the remaining chunks while it runs.
    PoolWorkers workers(kPoolWorkers);
    std::atomic<long> total{0};
    parallelFor(
        0, 64,
        [&](size_t i) {
            volatile long acc = 0;
            long spins = i == 0 ? 2000000 : 2000;
            for (long k = 0; k < spins; ++k)
                acc = acc + k;
            total.fetch_add(1);
        },
        1);
    EXPECT_EQ(64, total.load());
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    PoolWorkers workers(kPoolWorkers);
    std::vector<std::atomic<int>> hits(16 * 16);
    for (auto& h : hits)
        h.store(0);
    parallelFor(0, 16, [&](size_t i) {
        parallelFor(0, 16, [&](size_t j) {
            hits[i * 16 + j].fetch_add(1);
        });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(1, hits[k].load()) << k;
}

TEST(ThreadPool, CallFromSecondThreadRunsInlineWhileAnotherIsOpen)
{
    // Chunk 0 of the outer call holds it open until a call made from a
    // plain std::thread has finished, so that call must run its whole
    // range on its own thread.
    PoolWorkers workers(kPoolWorkers);
    std::promise<void> outer_open;
    std::promise<void> inner_done;
    std::shared_future<void> done = inner_done.get_future().share();
    std::vector<std::atomic<int>> inner(100);
    for (auto& h : inner)
        h.store(0);
    std::atomic<int> off_thread{0};
    std::thread second([&] {
        outer_open.get_future().wait();
        const auto self = std::this_thread::get_id();
        parallelFor(0, inner.size(), [&](size_t i) {
            inner[i].fetch_add(1);
            if (std::this_thread::get_id() != self)
                off_thread.fetch_add(1);
        }, 1);
        inner_done.set_value();
    });
    std::vector<std::atomic<int>> outer(8);
    for (auto& h : outer)
        h.store(0);
    parallelFor(0, outer.size(), [&](size_t i) {
        if (i == 0) {
            outer_open.set_value();
            EXPECT_EQ(std::future_status::ready,
                      done.wait_for(std::chrono::seconds(60)));
        }
        outer[i].fetch_add(1);
    }, 1);
    second.join();
    for (size_t i = 0; i < inner.size(); ++i)
        ASSERT_EQ(1, inner[i].load()) << i;
    for (size_t i = 0; i < outer.size(); ++i)
        ASSERT_EQ(1, outer[i].load()) << i;
    EXPECT_EQ(0, off_thread.load());
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    PoolWorkers workers(kPoolWorkers);
    std::vector<std::atomic<int>> ran(100);
    for (auto& h : ran)
        h.store(0);
    EXPECT_THROW(parallelFor(0, ran.size(),
                             [&](size_t i) {
                                 if (i == 57)
                                     throw std::runtime_error("boom");
                                 ran[i].fetch_add(1);
                             },
                             1),
                 std::runtime_error);
    for (size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(i == 57 ? 0 : 1, ran[i].load()) << i;
}

TEST(ThreadPool, NestedExceptionReachesOuterCallerAndPoolRecovers)
{
    PoolWorkers workers(kPoolWorkers);
    std::vector<std::atomic<int>> outer(16);
    for (auto& h : outer)
        h.store(0);
    EXPECT_THROW(parallelFor(0, outer.size(),
                             [&](size_t i) {
                                 parallelFor(0, 8, [&](size_t j) {
                                     if (i == 5 && j == 3)
                                         throw std::runtime_error("inner");
                                 });
                                 outer[i].fetch_add(1);
                             },
                             1),
                 std::runtime_error);
    for (size_t i = 0; i < outer.size(); ++i)
        EXPECT_EQ(i == 5 ? 0 : 1, outer[i].load()) << i;
    expectEachIndexOnce(2003, 0);
}

TEST(ThreadPool, ChunkCountersAddUpToChunksRun)
{
    PoolWorkers workers(kPoolWorkers);
    auto& metrics = bolt::obs::MetricsRegistry::global();
    auto count = [&](bolt::obs::MetricId id) {
        return metrics.snapshot().counter(id).value;
    };
    using bolt::obs::MetricId;
    metrics.setEnabled(true);
    uint64_t before = count(MetricId::kPoolTasksExecuted) +
                      count(MetricId::kPoolHelperTasks);
    // 1000 indices at grain 0 make chunks of 1000 / (4 * 4) = 62, so 17
    // chunks; 40 indices at grain 1 make 40.
    parallelFor(0, 1000, [](size_t) {}, 0);
    parallelFor(0, 40, [](size_t) {}, 1);
    uint64_t after = count(MetricId::kPoolTasksExecuted) +
                     count(MetricId::kPoolHelperTasks);
    uint64_t steals = count(MetricId::kPoolSteals);
    metrics.setEnabled(false);
    EXPECT_EQ(17u + 40u, after - before);
    EXPECT_EQ(0u, steals);
}

TEST(Rng, CounterStreamMatchesRegardlessOfDerivationOrder)
{
    // Derive the same stream key from different threads in different
    // orders; the draw sequence must not depend on any of that.
    PoolWorkers workers(kPoolWorkers);
    std::vector<double> first_draw(32);
    parallelFor(0, 32, [&](size_t i) {
        first_draw[i] = Rng::stream(123, {7, i}).uniform();
    }, 1);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(first_draw[i],
                         Rng::stream(123, {7, i}).uniform())
            << i;
}

// ------------------------------------------------------------- seeds

TEST(Seeds, PhaseKeysAreFrozen)
{
    // These keys partition the global Rng::stream namespace between
    // layers; goldens across the repo depend on them. Changing any
    // value is a breaking change that must regenerate every golden.
    using namespace bolt::util::seeds;
    EXPECT_EQ(kExperimentInstance, 3u);
    EXPECT_EQ(kExperimentDetect, 4u);
    EXPECT_EQ(kExperimentNeighborInstance, 5u);
    EXPECT_EQ(kFaultSample, 0x0Bf0u);
    EXPECT_EQ(kFaultJitter, 0x0Bf1u);
    EXPECT_EQ(kFaultArrival, 0x0Bf2u);
    EXPECT_EQ(kFaultDeparture, 0x0Bf3u);
    EXPECT_EQ(kFaultFlip, 0x0Bf4u);
    EXPECT_EQ(kServeArrival, 0x5E40u);
    EXPECT_EQ(kServeThink, 0x5E41u);
    EXPECT_EQ(kServeQuery, 0x5E42u);
    EXPECT_EQ(kServeCost, 0x5E43u);
    EXPECT_EQ(kScenarioStage, 0x5ce9a210u);
    EXPECT_EQ(kScenarioSegment, 0x5ce9a211u);
    EXPECT_EQ(kScenarioRepeat, 0x5ce9a212u);
    EXPECT_EQ(kFleetBoot, 0xF1EE70u);
    EXPECT_EQ(kFleetChurn, 0xF1EE71u);
    EXPECT_EQ(kFleetProfile, 0xF1EE72u);
    EXPECT_EQ(kSchedRandomPick, 0x5C4EDAu);
    EXPECT_EQ(kColoPrefill, 0xC0107E51u);
    EXPECT_EQ(kColoOracle, 0xC0107E53u);
    EXPECT_EQ(kColoMab, 0xC0107E54u);
    EXPECT_EQ(kColoSecure, 0xC0107E55u);
    EXPECT_EQ(kColoCell, 0xC0107E56u);
    EXPECT_EQ(kColoProbe, 0xC0107E57u);
}

TEST(Seeds, DerivedSeedsArePinned)
{
    // Pin actual derivations, not just the keys: derivedSeed must stay
    // Rng::stream(root, {phase, index}).seed() forever. The scenario
    // stage value is the seed printed in the shipped flash_crowd
    // golden (seed 42, stage 0).
    using namespace bolt::util::seeds;
    EXPECT_EQ(derivedSeed(42, kScenarioStage, 0),
              157994749479370998ULL);
    EXPECT_EQ(derivedSeed(7, kScenarioSegment, 1),
              9786190715857023817ULL);
    EXPECT_EQ(derivedSeed(7, kScenarioRepeat, 2),
              12714009199645688437ULL);
    EXPECT_EQ(derivedSeed(1, kServeArrival, 3),
              17496408874684026397ULL);
    EXPECT_EQ(derivedSeed(42, kFleetBoot, 0),
              18110315803503863879ULL);
    EXPECT_EQ(derivedSeed(42, kFleetChurn, 5),
              16358945496798517875ULL);
    EXPECT_EQ(derivedSeed(42, kFleetProfile, 5),
              6937417235409671418ULL);
    // Definitional identity against the Rng itself.
    EXPECT_EQ(derivedSeed(99, kFleetChurn, 17),
              Rng::stream(99, {kFleetChurn, 17}).seed());
    EXPECT_EQ(derivedSeed(42, kSchedRandomPick, 0),
              Rng::stream(42, {kSchedRandomPick, 0}).seed());
    EXPECT_EQ(derivedSeed(42, kColoCell, 3),
              Rng::stream(42, {kColoCell, 3}).seed());
}

TEST(Seeds, FanoutSeedInheritsForSingletons)
{
    // A fan-out of one inherits the parent seed unchanged (a lone
    // serve segment or include repetition reproduces the parent run
    // exactly); wider fan-outs derive one seed per index.
    using namespace bolt::util::seeds;
    EXPECT_EQ(fanoutSeed(1234, kScenarioSegment, 1, 0), 1234u);
    EXPECT_EQ(fanoutSeed(1234, kScenarioSegment, 4, 2),
              derivedSeed(1234, kScenarioSegment, 2));
    EXPECT_NE(fanoutSeed(1234, kScenarioSegment, 4, 2),
              fanoutSeed(1234, kScenarioSegment, 4, 3));
}
