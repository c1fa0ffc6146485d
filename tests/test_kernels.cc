/**
 * @file
 * Bit-equality suite for the blocked serve-path kernels
 * (src/linalg/kernels.h).
 *
 * Three layers of evidence:
 *
 *  - Reference equality: pearsonRow must reproduce the scalar
 *    linalg::weightedPearson per entry bit for bit. This runs on every
 *    CPU, under whichever backend the CPU selected.
 *  - Backend equality: every kernel must produce byte-identical output
 *    lanes under the Scalar backend and each SIMD backend (Avx2, 4
 *    lanes; Avx512, 8 lanes) across randomized shapes: every lane tail
 *    of both widths, the tails of their side-by-side block groups, and
 *    degenerate counts.
 *  - End to end: a fixed mix of analyze() and decompose() queries must
 *    return bit-identical results under every backend, field by field.
 *
 * The backend tests check each SIMD backend the CPU reports and skip
 * only when it reports none. Comparisons go through the raw IEEE-754
 * bit pattern, never through an epsilon: the kernels promise
 * bit-exactness, so the tests demand it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "core/training.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "workloads/generators.h"

using namespace bolt;
using namespace bolt::linalg;

namespace {

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Restore the process-wide kernel backend on scope exit. */
struct BackendGuard
{
    KernelBackend saved = activeKernelBackend();
    ~BackendGuard() { setKernelBackend(saved); }
};

/** Fill [0, n) of a padded column; the tail stays zero. */
AlignedVector
randomColumn(std::mt19937_64& rng, size_t n, double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    AlignedVector col(paddedCount(n), 0.0);
    for (size_t i = 0; i < n; ++i)
        col[i] = dist(rng);
    return col;
}

/**
 * Entry counts covering aligned, ragged and degenerate shapes: every
 * lane tail of a 4- and an 8-lane register, one to seven 8-lane blocks,
 * and the one-cell prune bound's four-block groups with each tail at
 * both widths (16 and 32 entries a group).
 */
const size_t kEntryCounts[] = {1,  2,  3,  4,  5,  7,  8,  9,  13, 15,
                               16, 17, 23, 24, 25, 31, 32, 33, 41, 57};

/** The SIMD backends, narrowest first. */
const KernelBackend kSimdBackends[] = {KernelBackend::Avx2,
                                       KernelBackend::Avx512};

SoaMatrix
randomRows(std::mt19937_64& rng, size_t entries, size_t lanes)
{
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    SoaMatrix m(entries, lanes);
    for (size_t e = 0; e < entries; ++e)
        for (size_t l = 0; l < lanes; ++l)
            m.at(e, l) = dist(rng);
    return m;
}

} // namespace

TEST(KernelShapes, PaddedCountRoundsUpToWholeBlocks)
{
    EXPECT_EQ(paddedCount(0), 0u);
    EXPECT_EQ(paddedCount(1), kKernelBlock);
    EXPECT_EQ(paddedCount(kKernelBlock), kKernelBlock);
    EXPECT_EQ(paddedCount(kKernelBlock + 1), 2 * kKernelBlock);
}

TEST(KernelShapes, SoaMatrixAppendRowRepadsWithZeroTail)
{
    SoaMatrix m(0, 3);
    std::vector<double> row = {1.0, 2.0, 3.0};
    for (size_t r = 0; r < 2 * kKernelBlock + 1; ++r) {
        row[0] = static_cast<double>(r);
        m.appendRow(row);
        ASSERT_EQ(m.rows(), r + 1);
        ASSERT_EQ(m.paddedRows(), paddedCount(r + 1));
        // Every logical row survives the re-pad; the tail is zero.
        for (size_t e = 0; e <= r; ++e) {
            EXPECT_EQ(m.at(e, 0), static_cast<double>(e));
            EXPECT_EQ(m.at(e, 1), 2.0);
            EXPECT_EQ(m.at(e, 2), 3.0);
        }
        for (size_t c = 0; c < m.cols(); ++c)
            for (size_t e = m.rows(); e < m.paddedRows(); ++e)
                EXPECT_EQ(m.col(c)[e], 0.0);
    }
}

TEST(PearsonBatch, MatchesScalarWeightedPearsonBitForBit)
{
    std::mt19937_64 rng(0x5eed0001);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> qdist(0.0, 100.0);
    for (size_t entries : kEntryCounts) {
        const size_t lanes = 10;
        SoaMatrix rows = randomRows(rng, entries, lanes);
        std::vector<double> weights(lanes);
        for (double& w : weights)
            w = wdist(rng);
        PearsonTable table = buildPearsonTable(rows, weights);

        for (size_t q = 0; q < 3; ++q) {
            std::vector<double> query(lanes);
            for (double& v : query)
                v = qdist(rng);
            AlignedVector out(rows.paddedRows(), -1.0);
            pearsonRow(table, query.data(), out.data());

            for (size_t e = 0; e < entries; ++e) {
                std::vector<double> row(lanes);
                for (size_t l = 0; l < lanes; ++l)
                    row[l] = rows.at(e, l);
                double ref = weightedPearson(query, row, weights);
                EXPECT_EQ(bits(out[e]), bits(ref))
                    << "entries=" << entries << " q=" << q << " e=" << e;
            }
        }
    }
}

TEST(PearsonBatch, EmptyTableWritesNothing)
{
    SoaMatrix rows(0, 4);
    std::vector<double> weights = {0.4, 0.3, 0.2, 0.1};
    PearsonTable table = buildPearsonTable(rows, weights);
    ASSERT_EQ(table.centered.paddedRows(), 0u);
    std::vector<double> query = {1.0, 2.0, 3.0, 4.0};
    AlignedVector out(kKernelBlock, -7.0);
    pearsonRow(table, query.data(), out.data());
    for (double v : out)
        EXPECT_EQ(v, -7.0);
}

TEST(PearsonBatch, ZeroVarianceEntryCorrelatesToZero)
{
    SoaMatrix rows(2, 3);
    // Entry 0 is flat (zero weighted variance); entry 1 ramps.
    for (size_t l = 0; l < 3; ++l) {
        rows.at(0, l) = 42.0;
        rows.at(1, l) = static_cast<double>(l) * 10.0;
    }
    std::vector<double> weights = {1.0, 1.0, 1.0};
    PearsonTable table = buildPearsonTable(rows, weights);
    std::vector<double> query = {1.0, 2.0, 3.0};
    AlignedVector out(rows.paddedRows(), -1.0);
    pearsonRow(table, query.data(), out.data());
    EXPECT_EQ(out[0], 0.0);
    EXPECT_GT(out[1], 0.9);
}

TEST(KernelBackendSelection, StartsAsTheWidestBackendTheCpuReports)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    const bool cpu_avx2 = __builtin_cpu_supports("avx2");
    const bool cpu_avx512 = __builtin_cpu_supports("avx512f");
#else
    const bool cpu_avx2 = false;
    const bool cpu_avx512 = false;
#endif
    EXPECT_TRUE(kernelBackendAvailable(KernelBackend::Scalar));
    EXPECT_EQ(kernelBackendAvailable(KernelBackend::Avx2), cpu_avx2);
    EXPECT_EQ(kernelBackendAvailable(KernelBackend::Avx512), cpu_avx512);
    // Avx512 exactly when the CPU reports AVX-512F, else Avx2 exactly
    // when it reports AVX2.
    EXPECT_EQ(activeKernelBackend(), cpu_avx512 ? KernelBackend::Avx512
                                     : cpu_avx2 ? KernelBackend::Avx2
                                                : KernelBackend::Scalar);
    EXPECT_STREQ(kernelBackendName(KernelBackend::Scalar), "scalar");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx2), "avx2");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Avx512), "avx512");

    // Every available backend can be selected, the narrower ones on a
    // wider host too; an unavailable one is refused and the current one
    // kept.
    BackendGuard guard;
    for (KernelBackend b : {KernelBackend::Scalar, KernelBackend::Avx2,
                            KernelBackend::Avx512}) {
        ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
        const bool available = kernelBackendAvailable(b);
        EXPECT_EQ(setKernelBackend(b), available) << kernelBackendName(b);
        EXPECT_EQ(activeKernelBackend(),
                  available ? b : KernelBackend::Scalar)
            << kernelBackendName(b);
        // widenFit's call width follows the active backend.
        EXPECT_EQ(widenFitLanes(),
                  activeKernelBackend() == KernelBackend::Avx512
                      ? kWidenBlocks * kKernelBlock
                      : kWidenBlocks * 4)
            << kernelBackendName(b);
    }
}

TEST(FitKernel, NonPositiveWsumYieldsSentinelScore)
{
    AlignedVector base(kKernelBlock, 0.0);
    for (size_t e = 0; e < 4; ++e)
        base[e] = 50.0 + 10.0 * static_cast<double>(e);
    FitCoord coord{base.data(), 1.0, 55.0, DevMode::Abs, false};
    FitSpec spec;
    spec.coords = &coord;
    spec.coordCount = 1;
    spec.fitWsum = 0.0;
    spec.scoreWsum = 0.0;
    AlignedVector levels(kKernelBlock), scores(kKernelBlock);
    fitLevelsAndScore(spec, 4, levels.data(), scores.data());
    for (size_t e = 0; e < 4; ++e)
        EXPECT_EQ(scores[e], 1e9);
}

// ---------------------------------------------------------------------
// Scalar-vs-SIMD backend equality, for each SIMD backend the CPU
// reports (skipped when it reports none).
// ---------------------------------------------------------------------

namespace {

/** The SIMD backends this CPU runs, narrowest first. */
std::vector<KernelBackend>
availableSimdBackends()
{
    std::vector<KernelBackend> out;
    for (KernelBackend b : kSimdBackends)
        if (kernelBackendAvailable(b))
            out.push_back(b);
    return out;
}

#define SKIP_WITHOUT_SIMD()                                              \
    do {                                                                 \
        if (availableSimdBackends().empty())                             \
            GTEST_SKIP() << "CPU reports no SIMD backend";               \
    } while (0)

void
expectLanesEqual(const AlignedVector& a, const AlignedVector& b,
                 size_t lanes, const char* what)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < lanes; ++i)
        EXPECT_EQ(bits(a[i]), bits(b[i]))
            << what << " lane " << i << " diverges: " << a[i]
            << " vs " << b[i];
}

} // namespace

TEST(BackendEquality, PearsonBatchRandomizedShapes)
{
    SKIP_WITHOUT_SIMD();
    BackendGuard guard;
    std::mt19937_64 rng(0xa5d2);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    for (size_t entries : kEntryCounts) {
        const size_t lanes = 10;
        SoaMatrix rows = randomRows(rng, entries, lanes);
        std::vector<double> weights(lanes);
        for (double& w : weights)
            w = wdist(rng);
        PearsonTable table = buildPearsonTable(rows, weights);
        std::uniform_real_distribution<double> qdist(0.0, 100.0);
        for (size_t q = 0; q < 5; ++q) {
            std::vector<double> query(lanes);
            for (double& v : query)
                v = qdist(rng);
            AlignedVector scalar_out(rows.paddedRows(), 0.0);
            ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
            pearsonRow(table, query.data(), scalar_out.data());
            for (KernelBackend simd : availableSimdBackends()) {
                AlignedVector simd_out(rows.paddedRows(), 0.0);
                ASSERT_TRUE(setKernelBackend(simd));
                pearsonRow(table, query.data(), simd_out.data());
                for (size_t e = 0; e < entries; ++e)
                    EXPECT_EQ(bits(scalar_out[e]), bits(simd_out[e]))
                        << kernelBackendName(simd) << " entries=" << entries
                        << " q=" << q << " e=" << e;
            }
        }
    }
}

TEST(BackendEquality, FitLevelsAndScoreRandomizedShapes)
{
    SKIP_WITHOUT_SIMD();
    BackendGuard guard;
    std::mt19937_64 rng(0xf17);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> tdist(0.0, 100.0);
    std::uniform_int_distribution<int> mdist(0, 2);
    std::uniform_int_distribution<int> bdist(0, 1);
    // The SIMD kernels search four registers side by side (16 entries
    // on Avx2, 32 on Avx512), then a two-register and a one-register
    // tail. The counts cover every tail after zero, one and two whole
    // groups at both widths, with ragged lane tails; 120 entries is the
    // production table.
    const size_t kFitCounts[] = {1,  6,  9,  11, 15, 16, 17, 18, 23, 24,
                                 25, 27, 31, 32, 33, 35, 41, 49, 57, 120};
    // Every coordinate Abs, Upper or Zero; a random mix; and a leading
    // run of Zero coordinates (the level-independent prefix the kernel
    // hoists) before a random mix.
    enum class Mix { Abs, Upper, Zero, Random, ZeroLead };
    const Mix kMixes[] = {Mix::Abs, Mix::Upper, Mix::Zero, Mix::Random,
                          Mix::ZeroLead};
    for (size_t entries : kFitCounts) {
        for (size_t coords : {size_t(1), size_t(5), kMaxFitCoords}) {
            for (Mix mix : kMixes) {
                for (bool skip_upper : {false, true}) {
                    for (int variant = 0; variant < 4; ++variant) {
                        // Variant 1 has no fit weight, variant 2 a
                        // negative score weight; variant 3 scales the
                        // targets and bases to 1e-12, where probes
                        // differ in the last bits.
                        const double scale = variant == 3 ? 1e-12 : 1.0;
                        std::vector<AlignedVector> bases;
                        std::vector<FitCoord> fc(coords);
                        double wsum = 0.0;
                        for (size_t i = 0; i < coords; ++i) {
                            bases.push_back(randomColumn(rng, entries, 0.0,
                                                         100.0 * scale));
                            fc[i].base = bases.back().data();
                            fc[i].weight = wdist(rng);
                            fc[i].target = tdist(rng) * scale;
                            fc[i].capacity = bdist(rng) == 1;
                            switch (mix) {
                            case Mix::Abs:
                                fc[i].mode = DevMode::Abs;
                                break;
                            case Mix::Upper:
                                fc[i].mode = DevMode::Upper;
                                break;
                            case Mix::Zero:
                                fc[i].mode = DevMode::Zero;
                                break;
                            case Mix::Random:
                                fc[i].mode = static_cast<DevMode>(mdist(rng));
                                break;
                            case Mix::ZeroLead:
                                fc[i].mode =
                                    i < coords / 2
                                        ? DevMode::Zero
                                        : static_cast<DevMode>(mdist(rng));
                                break;
                            }
                            wsum += fc[i].weight;
                        }
                        FitSpec spec;
                        spec.coords = fc.data();
                        spec.coordCount = coords;
                        spec.iters = 14;
                        spec.skipUpperInFit = skip_upper;
                        spec.fitWsum = variant == 1 ? 0.0 : wsum;
                        spec.scoreWsum = variant == 2 ? -1.0 : wsum;

                        size_t padded = paddedCount(entries);
                        AlignedVector l1(padded), s1(padded);
                        ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
                        fitLevelsAndScore(spec, entries, l1.data(),
                                          s1.data());
                        SCOPED_TRACE(
                            "entries=" + std::to_string(entries) +
                            " coords=" + std::to_string(coords) +
                            " mix=" + std::to_string(static_cast<int>(mix)) +
                            " skip_upper=" + std::to_string(skip_upper) +
                            " variant=" + std::to_string(variant));
                        for (KernelBackend simd : availableSimdBackends()) {
                            SCOPED_TRACE(kernelBackendName(simd));
                            AlignedVector l2(padded), s2(padded);
                            ASSERT_TRUE(setKernelBackend(simd));
                            fitLevelsAndScore(spec, entries, l2.data(),
                                              s2.data());
                            expectLanesEqual(l1, l2, entries, "fit level");
                            expectLanesEqual(s1, s2, entries, "fit score");
                        }
                    }
                }
            }
        }
    }
}

TEST(BackendEquality, PruneBoundsRandomizedShapes)
{
    SKIP_WITHOUT_SIMD();
    BackendGuard guard;
    std::mt19937_64 rng(0x6e1d);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> tdist(0.0, 100.0);
    std::uniform_int_distribution<int> bdist(0, 1);
    // One cell (the range-wide bound) up to the largest grid. Edges are
    // the scaling law at evenly spaced levels, as the profile table
    // builds them: capacity coordinates go flat below the 0.85 floor,
    // and bases up to 100 make anchor + candidate sums clamp.
    auto predict = [](double base, bool capacity, double level) {
        double scale = capacity ? std::max(level, 0.85) : level;
        return std::clamp(base * scale, 0.0, 100.0);
    };
    // The SIMD one-cell bound steps four registers together: the counts
    // cover its one-register tails at both widths, and 120 is the
    // production table.
    std::vector<size_t> counts(std::begin(kEntryCounts),
                               std::end(kEntryCounts));
    counts.push_back(120);
    for (size_t entries : counts) {
        for (size_t cells = 1; cells <= kMaxPruneCells; ++cells) {
            for (bool core_shared : {false, true}) {
                // Candidates are rows of a wider table: bounded in place
                // through a random index list (repeats allowed, the tail
                // padded to a whole kKernelBlock and naming real rows
                // too), and from columns packed in that order.
                const size_t coords = 10;
                const size_t rows = entries + 5;
                const size_t padded = paddedCount(entries);
                std::uniform_int_distribution<uint32_t> rdist(
                    0, static_cast<uint32_t>(rows - 1));
                std::vector<uint32_t> index(padded);
                for (uint32_t& r : index)
                    r = rdist(rng);
                std::vector<double> levels(cells + 1);
                for (size_t k = 0; k <= cells; ++k)
                    levels[k] = 0.05 + 1.05 * static_cast<double>(k) /
                                           static_cast<double>(cells);
                std::vector<AlignedVector> wide, packed;
                std::vector<PruneCoord> pc(coords), pc_wide(coords);
                for (size_t i = 0; i < coords; ++i) {
                    bool core = bdist(rng) == 1;
                    bool capacity = bdist(rng) == 1;
                    double anchor = tdist(rng);
                    AlignedVector bases = randomColumn(rng, rows, 0.0, 100.0);
                    pc[i].additive = !core;
                    pc[i].weight = wdist(rng);
                    pc[i].target = tdist(rng);
                    for (size_t k = 0; k <= cells; ++k) {
                        pc[i].base[k] = core && !core_shared
                                            ? 0.0
                                            : predict(anchor, capacity,
                                                      levels[k]);
                        if (core)
                            continue;
                        AlignedVector col(paddedCount(rows), 0.0);
                        for (size_t e = 0; e < rows; ++e)
                            col[e] = predict(bases[e], capacity, levels[k]);
                        AlignedVector pack(padded, 0.0);
                        for (size_t e = 0; e < entries; ++e)
                            pack[e] = col[index[e]];
                        wide.push_back(std::move(col));
                        packed.push_back(std::move(pack));
                        pc[i].cand[k] = packed.back().data();
                    }
                    pc_wide[i] = pc[i];
                    if (!core)
                        for (size_t k = 0; k <= cells; ++k)
                            pc_wide[i].cand[k] =
                                wide[wide.size() - (cells + 1) + k].data();
                }
                ASSERT_EQ(padded % kKernelBlock, 0u);
                AlignedVector b1(padded), b3(padded);
                ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
                pruneBounds(pc.data(), coords, cells, entries, b1.data());
                pruneBounds(pc_wide.data(), coords, cells, entries, b3.data(),
                            index.data());
                SCOPED_TRACE("entries=" + std::to_string(entries) +
                             " cells=" + std::to_string(cells) +
                             " core_shared=" + std::to_string(core_shared));
                expectLanesEqual(b1, b3, entries, "indexed scalar bound");
                for (KernelBackend simd : availableSimdBackends()) {
                    SCOPED_TRACE(kernelBackendName(simd));
                    AlignedVector b2(padded), b4(padded);
                    ASSERT_TRUE(setKernelBackend(simd));
                    pruneBounds(pc.data(), coords, cells, entries, b2.data());
                    pruneBounds(pc_wide.data(), coords, cells, entries,
                                b4.data(), index.data());
                    expectLanesEqual(b1, b2, entries, "prune bound");
                    expectLanesEqual(b1, b4, entries, "indexed prune bound");
                }
            }
        }
    }
}

TEST(BackendEquality, WidenFitRandomizedShapes)
{
    SKIP_WITHOUT_SIMD();
    BackendGuard guard;
    std::mt19937_64 rng(0x31de);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> tdist(0.0, 100.0);
    std::uniform_int_distribution<int> bdist(0, 1);
    std::uniform_int_distribution<size_t> ldist(0, 4);
    std::uniform_real_distribution<double> lvdist(0.05, 1.1);
    // The SIMD kernels refit three registers side by side (12
    // candidates on Avx2, 24 on Avx512, a full refit queue), then a
    // two- or one-register tail: the counts cover 1, 2 and 3 registers,
    // both tails after one and two whole groups at both widths, and
    // every ragged lane tail of both.
    const size_t kWidenCounts[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                   12, 13, 15, 16, 17, 20, 23, 24,
                                   25, 31, 32, 33, 41, 57};
    for (size_t cands : kWidenCounts) {
        for (size_t parts = 2; parts <= kMaxWidenParts; ++parts) {
            for (bool core_shared : {false, true}) {
                for (int variant = 0; variant < 4; ++variant) {
                    // Variant 1 has no weight; variant 2 shrinks the
                    // bases and the uncore targets to 1e-12, so two
                    // probes differ by less than the rounding of the
                    // core deviation and tie only once it is added.
                    // Every lane extends its own base parts from its own
                    // starting levels, except in variant 3, where all
                    // lanes share one set at level 0.7 (one anchor).
                    const bool weightless = variant == 1;
                    const double scale = variant == 2 ? 1e-12 : 1.0;
                    const bool shared = variant == 3;
                    // A leading run of core coordinates (the part-
                    // independent deviation the kernel hoists), then
                    // core flags at random.
                    const size_t coords = 10;
                    const size_t leading = ldist(rng);
                    std::vector<WidenCoord> wc(coords);
                    std::vector<AlignedVector> cand_cols;
                    std::vector<const double*> cand_ptrs(coords);
                    std::vector<AlignedVector> fixed_cols((parts - 1) * coords);
                    std::vector<const double*> fixed_ptrs((parts - 1) * coords);
                    double wsum = 0.0;
                    for (size_t i = 0; i < coords; ++i) {
                        wc[i].weight = wdist(rng);
                        wc[i].core = i < leading || bdist(rng) == 1;
                        wc[i].target =
                            tdist(rng) * (wc[i].core ? 1.0 : scale);
                        wc[i].capacity = bdist(rng) == 1;
                        wsum += wc[i].weight;
                        cand_cols.push_back(
                            randomColumn(rng, cands, 0.0, 100.0 * scale));
                        cand_ptrs[i] = cand_cols.back().data();
                        for (size_t p = 0; p + 1 < parts; ++p) {
                            AlignedVector& col = fixed_cols[p * coords + i];
                            col = randomColumn(rng, cands, 0.0, 100.0 * scale);
                            if (shared)
                                std::fill(col.begin(), col.begin() + cands,
                                          col[0]);
                            fixed_ptrs[p * coords + i] = col.data();
                        }
                    }
                    std::vector<AlignedVector> level_cols(parts - 1);
                    std::vector<const double*> level_ptrs(parts - 1);
                    for (size_t p = 0; p + 1 < parts; ++p) {
                        level_cols[p].assign(paddedCount(cands), 0.0);
                        for (size_t e = 0; e < cands; ++e)
                            level_cols[p][e] = shared ? 0.7 : lvdist(rng);
                        level_ptrs[p] = level_cols[p].data();
                    }
                    WidenSpec spec;
                    spec.coords = wc.data();
                    spec.coordCount = coords;
                    spec.partCount = parts;
                    spec.fixedBase = fixed_ptrs.data();
                    spec.candBase = cand_ptrs.data();
                    spec.fixedInitLevels = level_ptrs.data();
                    spec.coreShared = core_shared;
                    spec.wsum = weightless ? 0.0 : wsum;

                    size_t padded = paddedCount(cands);
                    AlignedVector d1(padded), lv1(padded * parts);
                    ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
                    widenFit(spec, cands, d1.data(), lv1.data());
                    SCOPED_TRACE("cands=" + std::to_string(cands) +
                                 " parts=" + std::to_string(parts) +
                                 " core_shared=" +
                                 std::to_string(core_shared) +
                                 " variant=" + std::to_string(variant));
                    for (KernelBackend simd : availableSimdBackends()) {
                        SCOPED_TRACE(kernelBackendName(simd));
                        AlignedVector d2(padded), lv2(padded * parts);
                        ASSERT_TRUE(setKernelBackend(simd));
                        widenFit(spec, cands, d2.data(), lv2.data());
                        expectLanesEqual(d1, d2, cands, "widen distance");
                        for (size_t e = 0; e < cands; ++e)
                            for (size_t p = 0; p < parts; ++p) {
                                size_t i = e * parts + p;
                                EXPECT_EQ(bits(lv1[i]), bits(lv2[i]))
                                    << "widen level e=" << e << " p=" << p;
                            }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scalar-vs-SIMD end to end: analyze() and decompose() results.
// ---------------------------------------------------------------------

namespace {

/** Shared trained recommender (expensive, built once per suite). */
class BackendEndToEnd : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        util::Rng rng(4242);
        util::Rng tr = rng.substream("train");
        auto specs = workloads::trainingSet(tr);
        training_ = new core::TrainingSet(
            core::TrainingSet::fromSpecs(specs, tr));
        recommender_ = new core::HybridRecommender(*training_);
    }
    static void
    TearDownTestSuite()
    {
        delete recommender_;
        delete training_;
        recommender_ = nullptr;
        training_ = nullptr;
    }

    static core::TrainingSet* training_;
    static core::HybridRecommender* recommender_;
};

core::TrainingSet* BackendEndToEnd::training_ = nullptr;
core::HybridRecommender* BackendEndToEnd::recommender_ = nullptr;

/** One query of the fixed mix. */
struct MixQuery
{
    core::SparseObservation obs;
    bool isDecompose = false;
    bool coreShared = false;
    size_t maxParts = 3;
};

/**
 * The fixed mix: analyze probes with 2-10 observed resources, Exact and
 * Upper bounds and varying victim load, then decompose aggregates of two
 * blended entries over every (core_shared, max_parts 1-3) pair, also
 * with 2-10 observed resources, one three-entry blend without a shared
 * core, and four-entry blends at max_parts 4 and 5 (the detector's cap)
 * with and without a shared core.
 */
std::vector<MixQuery>
buildMix(const core::TrainingSet& tr)
{
    util::Rng rng(77);
    std::vector<MixQuery> mix;
    for (size_t q = 0; q < 18; ++q) {
        const auto& entry = tr.entry((q * 5 + 2) % tr.size());
        sim::ResourceVector p = workloads::scaledPressure(
            entry.fullLoadBase, 0.35 + 0.05 * static_cast<double>(q % 13));
        MixQuery query;
        size_t observed = 2 + q % 9;
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            double v = std::clamp(p[r] + rng.gaussian(0.0, 1.0), 0.0, 100.0);
            bool upper = (q % 3 == 1) && !sim::isCoreResource(r);
            query.obs.set(r, v,
                          upper ? core::SparseObservation::Bound::Upper
                                : core::SparseObservation::Bound::Exact);
        }
        mix.push_back(std::move(query));
    }
    for (size_t q = 0; q < 12; ++q) {
        const auto& a = tr.entry((q * 11 + 5) % tr.size());
        const auto& b = tr.entry((q * 17 + 29) % tr.size());
        sim::ResourceVector pa = workloads::scaledPressure(
            a.fullLoadBase, 0.5 + 0.1 * static_cast<double>(q % 5));
        sim::ResourceVector pb = workloads::scaledPressure(
            b.fullLoadBase, 0.4 + 0.1 * static_cast<double>(q % 7));
        MixQuery query;
        query.isDecompose = true;
        query.coreShared = q % 2 == 0;
        query.maxParts = 1 + q % 3;
        size_t observed = 10 - (q * 5) % 9;
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            double v = sim::isCoreResource(r)
                           ? pa[r]
                           : std::min(pa[r] + pb[r], 100.0);
            query.obs.set(r,
                          std::clamp(v + rng.gaussian(0.0, 1.0), 0.0, 100.0));
        }
        mix.push_back(std::move(query));
    }
    {
        // A three-tenant blend without a shared core: the search reaches
        // depth 3, where it runs no re-anchoring pass.
        MixQuery query;
        query.isDecompose = true;
        query.coreShared = false;
        query.maxParts = 3;
        sim::ResourceVector sum;
        for (size_t idx : {size_t(7), size_t(48), size_t(95)})
            sum += workloads::scaledPressure(tr.entry(idx).fullLoadBase, 0.7);
        for (sim::Resource r : sim::kAllResources) {
            double v = sim::isCoreResource(r) ? 0.0 : std::min(sum[r], 100.0);
            query.obs.set(r,
                          std::clamp(v + rng.gaussian(0.0, 1.0), 0.0, 100.0));
        }
        mix.push_back(std::move(query));
    }
    for (size_t q = 0; q < 4; ++q) {
        // Four-tenant blends, searched up to depth 4 or 5.
        MixQuery query;
        query.isDecompose = true;
        query.coreShared = q % 2 == 0;
        query.maxParts = 4 + q / 2;
        sim::ResourceVector core, sum;
        for (size_t k = 0; k < 4; ++k) {
            const auto& entry = tr.entry((q * 23 + k * 31 + 3) % tr.size());
            sim::ResourceVector p = workloads::scaledPressure(
                entry.fullLoadBase, 0.5 + 0.1 * static_cast<double>(k));
            if (k == 0)
                core = p;
            sum += p;
        }
        for (sim::Resource r : sim::kAllResources) {
            double v = !sim::isCoreResource(r) ? std::min(sum[r], 100.0)
                       : query.coreShared      ? core[r]
                                               : 0.0;
            query.obs.set(r,
                          std::clamp(v + rng.gaussian(0.0, 1.0), 0.0, 100.0));
        }
        mix.push_back(std::move(query));
    }
    return mix;
}

/** Every query's outputs under one backend, in mix order. */
struct MixResults
{
    std::vector<core::SimilarityResult> analyzed;
    std::vector<core::Decomposition> decomposed;
};

MixResults
runMix(const core::HybridRecommender& rec, const std::vector<MixQuery>& mix)
{
    MixResults out;
    for (const auto& q : mix) {
        if (q.isDecompose)
            out.decomposed.push_back(
                rec.decompose(q.obs, q.coreShared, q.maxParts));
        else
            out.analyzed.push_back(rec.analyze(q.obs));
    }
    return out;
}

void
expectResultsBitEqual(const core::SimilarityResult& a,
                      const core::SimilarityResult& b)
{
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].first, b.ranking[i].first);
        EXPECT_EQ(bits(a.ranking[i].second), bits(b.ranking[i].second));
    }
    ASSERT_EQ(a.distribution.size(), b.distribution.size());
    for (size_t i = 0; i < a.distribution.size(); ++i) {
        EXPECT_EQ(a.distribution[i].first, b.distribution[i].first);
        EXPECT_EQ(bits(a.distribution[i].second),
                  bits(b.distribution[i].second));
    }
    for (size_t c = 0; c < sim::kNumResources; ++c)
        EXPECT_EQ(bits(a.reconstructed.at(c)), bits(b.reconstructed.at(c)));
    EXPECT_EQ(a.conceptsKept, b.conceptsKept);
    EXPECT_EQ(bits(a.margin), bits(b.margin));
    EXPECT_EQ(bits(a.topFittedLevel), bits(b.topFittedLevel));
    EXPECT_EQ(bits(a.confidence), bits(b.confidence));
}

void
expectDecompositionsBitEqual(const core::Decomposition& a,
                             const core::Decomposition& b)
{
    ASSERT_EQ(a.parts.size(), b.parts.size());
    for (size_t i = 0; i < a.parts.size(); ++i) {
        EXPECT_EQ(a.parts[i].index, b.parts[i].index);
        EXPECT_EQ(bits(a.parts[i].level), bits(b.parts[i].level));
    }
    EXPECT_EQ(bits(a.distance), bits(b.distance));
    EXPECT_EQ(bits(a.score), bits(b.score));
}

} // namespace

TEST_F(BackendEndToEnd, AnalyzeAndDecomposeBitIdentical)
{
    SKIP_WITHOUT_SIMD();
    BackendGuard guard;
    std::vector<MixQuery> mix = buildMix(*training_);

    ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
    MixResults scalar = runMix(*recommender_, mix);
    ASSERT_EQ(scalar.analyzed.size(), 18u);
    ASSERT_EQ(scalar.decomposed.size(), 17u);
    // The three-tenant no-shared-core blend took a second part, so its
    // search went on to depth 3; a four-tenant blend took a third, so
    // its search went on to depth 4.
    EXPECT_GE(scalar.decomposed[12].parts.size(), 2u);
    size_t deepest = 0;
    for (size_t q = 13; q < scalar.decomposed.size(); ++q)
        deepest = std::max(deepest, scalar.decomposed[q].parts.size());
    EXPECT_GE(deepest, 3u);

    for (KernelBackend backend : availableSimdBackends()) {
        SCOPED_TRACE(kernelBackendName(backend));
        ASSERT_TRUE(setKernelBackend(backend));
        MixResults simd = runMix(*recommender_, mix);
        ASSERT_EQ(simd.analyzed.size(), scalar.analyzed.size());
        for (size_t q = 0; q < scalar.analyzed.size(); ++q) {
            SCOPED_TRACE("analyze query " + std::to_string(q));
            expectResultsBitEqual(scalar.analyzed[q], simd.analyzed[q]);
        }
        ASSERT_EQ(simd.decomposed.size(), scalar.decomposed.size());
        for (size_t q = 0; q < scalar.decomposed.size(); ++q) {
            SCOPED_TRACE("decompose query " + std::to_string(q));
            expectDecompositionsBitEqual(scalar.decomposed[q],
                                         simd.decomposed[q]);
        }
    }
}
