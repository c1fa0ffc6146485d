#include "recommender.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "linalg/fold_in.h"
#include "obs/metrics.h"

namespace bolt {
namespace core {

namespace {

/**
 * Pressure-point scale of the observed-coordinate match: a mean weighted
 * deviation of this many points halves-ish the similarity score.
 */
constexpr double kMatchDistanceScale = 12.0;

/**
 * Ridge weight of the victim-row fold-in: how strongly the completion
 * is pulled toward the training centroid, against the squared error on
 * the victim's Exact entries (pressures normalized to [0, 1]). Chosen
 * from a sweep over {0.001, ..., 0.3} (EXPERIMENTS.md, "Fold-in ridge
 * weight"): detection accuracy barely moves across it, while the
 * completed row's error on unobserved coordinates is lowest here.
 * Weights of 0.03 and below over-fit rows with 3-5 Exact entries,
 * completing them worse than the centroid row does.
 */
constexpr double kFoldInLambda = 0.3;

/**
 * Safety slack (pressure points) on decompose()'s candidate pruning
 * bound. The bound is already provably conservative — every step it
 * takes is a monotone floating-point operation on quantities that
 * dominate the exact ones — so the slack only makes the skip condition
 * slightly harder to meet.
 */
constexpr double kPruneSlack = 1e-6;

/** Level cells per part of the grid bound (the table's grid). */
constexpr size_t kCells = ScaledProfileTable::kLevelCells;

/**
 * Refit queue capacity: decompose() hands linalg::widenFit the
 * registers it refits side by side, linalg::widenFitLanes() candidates
 * on the active backend, at most this many.
 */
constexpr size_t kRefitLanes = linalg::kWidenBlocks * linalg::kKernelBlock;

/**
 * Occam margin of decompose()'s widening: a depth's best explanation
 * replaces the incumbent only when its distance is at most
 * kOccamRatio times the incumbent's and at least kOccamGain below it.
 */
constexpr double kOccamRatio = 0.88;
constexpr double kOccamGain = 0.7;

} // namespace

/**
 * Reusable working memory for one analyze()/decompose() call. Each
 * thread has one (threadScratch()), so after a thread's first query
 * every buffer here is a capacity-warm vector or a fixed-size lane
 * array: the query hot loops allocate nothing. Every query rebuilds
 * what it reads, so one scratch serves recommenders of any size.
 */
struct QueryScratch
{
    std::vector<double> fullRow; ///< Reconstructed victim row.

    // The observation unpacked into fixed-size lane arrays over the
    // *observed* coordinates only, with the weight sums every deviation
    // kernel divides by (accumulated in the same coordinate order as
    // the uncached code, so the bits match).
    size_t obsCount = 0;
    sim::LaneArray<size_t> obsIdx;
    sim::LaneArray<double> obsVal;
    sim::LaneArray<bool> obsExact;
    sim::LaneArray<double> obsWeight;
    double wsumAll = 0.0;   ///< Weight sum over observed coordinates.
    double wsumExact = 0.0; ///< ... over Exact coordinates only.
    size_t exactCount = 0;
    bool hasUpper = false;

    // Observed core-coordinate subset (decompose()'s shortlist ranks
    // part-0 candidates on these alone when a core is shared). Only the
    // first kCoreResources.size() lanes are used.
    size_t coreCount = 0;
    sim::LaneArray<size_t> coreIdx;
    sim::LaneArray<double> coreVal;
    sim::LaneArray<double> coreWeight;
    double coreWsum = 0.0;

    /** (class id, score) accumulator for the similarity distribution. */
    std::vector<std::pair<size_t, double>> classScores;

    // Kernel problem descriptions plus padded per-entry outputs. The
    // coord arrays are rebuilt per query; levels/scores are sized to
    // the table's padded entry count on first use and stay warm.
    std::array<linalg::FitCoord, linalg::kMaxFitCoords> fitCoords;
    linalg::AlignedVector levels; ///< Fitted level per entry, padded.
    linalg::AlignedVector scores; ///< Deviation per entry, padded.
    linalg::AlignedVector pearsonRow; ///< Pearson per entry, padded.

    // decompose() working state.
    std::vector<std::pair<double, size_t>> shortlist;
    std::vector<DecompositionPart> bestParts;
    std::vector<DecompositionPart> improvedParts;
    std::vector<DecompositionPart> baseParts;
    /** One-cell prune bound: each coordinate over the whole range. */
    std::array<linalg::PruneCoord, linalg::kMaxFitCoords> pruneCoords;
    /** Level-cell grid bound (depth 2), over the table's edge columns. */
    std::array<linalg::PruneCoord, linalg::kMaxFitCoords> gridCoords;
    std::array<linalg::WidenCoord, linalg::kMaxFitCoords> widenCoords;
    // One anchor's prune bounds: every candidate's one-cell bound, the
    // ids of the candidates that pass it (padded to a whole block with
    // row 0), and their grid bounds, which the grid kernel reads through
    // that id list. Sized to the table's padded entry count.
    linalg::AlignedVector oneCellBounds;
    std::vector<uint32_t> gated;
    linalg::AlignedVector gridBounds;
    // The survivor queue, filled across a depth's anchors: per lane the
    // candidate id and its anchor's base parts, then the packed columns
    // widenFit reads (one aligned column per part and coordinate, and
    // per base part's starting level) and the refit outputs.
    size_t queued[kRefitLanes] = {};
    DecompositionPart queuedBase[kRefitLanes][linalg::kMaxWidenParts - 1];
    alignas(linalg::kKernelAlign) double
        widenPack[linalg::kMaxWidenParts * linalg::kMaxFitCoords *
                  kRefitLanes];
    alignas(linalg::kKernelAlign) double
        levelPack[(linalg::kMaxWidenParts - 1) * kRefitLanes];
    alignas(linalg::kKernelAlign) double widenDist[kRefitLanes];
    alignas(linalg::kKernelAlign) double
        widenLevels[kRefitLanes * linalg::kMaxWidenParts];
    const double* fixedPtrs[(linalg::kMaxWidenParts - 1) *
                            linalg::kMaxFitCoords] = {};
    const double* levelPtrs[linalg::kMaxWidenParts - 1] = {};
    const double* candPtrs[linalg::kMaxFitCoords] = {};
};

namespace {

/**
 * Flatten the observed coordinates of `observation` into `s`'s lane
 * arrays. Coordinate order is ascending resource index — the order the
 * uncached deviation loops visited them — so the precomputed weight
 * sums are bit-identical to the per-call accumulations they replace.
 */
void
unpackObservation(const SparseObservation& observation,
                  const std::vector<double>& weights, QueryScratch& s)
{
    s.obsCount = 0;
    s.wsumAll = 0.0;
    s.wsumExact = 0.0;
    s.exactCount = 0;
    s.hasUpper = false;
    s.coreCount = 0;
    s.coreWsum = 0.0;
    for (size_t c = 0; c < sim::kNumResources; ++c) {
        auto res = static_cast<sim::Resource>(c);
        if (!observation.has(res))
            continue;
        bool exact = observation.isExact(res);
        double w = weights[c];
        s.obsIdx[s.obsCount] = c;
        s.obsVal[s.obsCount] = observation.get(res);
        s.obsExact[s.obsCount] = exact;
        s.obsWeight[s.obsCount] = w;
        ++s.obsCount;
        s.wsumAll += w;
        if (exact) {
            s.wsumExact += w;
            ++s.exactCount;
        } else {
            s.hasUpper = true;
        }
        if (sim::isCoreResource(res)) {
            s.coreIdx[s.coreCount] = c;
            s.coreVal[s.coreCount] = observation.get(res);
            s.coreWeight[s.coreCount] = w;
            ++s.coreCount;
            s.coreWsum += w;
        }
    }
}

} // namespace

double
SimilarityResult::topScore() const
{
    return ranking.empty() ? 0.0 : ranking.front().second;
}

HybridRecommender::HybridRecommender(const TrainingSet& training,
                                     RecommenderConfig config)
    : training_(training), config_(config)
{
    if (training_.empty())
        throw std::invalid_argument("HybridRecommender: empty training set");

    svd_ = linalg::svd(training_.matrix());
    rank_ = svd_.rankForEnergy(config_.energyKept);

    // Resource weights for the content stage: how strongly each resource
    // participates in the kept similarity concepts. The concepts for the
    // *weights* come from the column-standardized training matrix — on
    // the raw matrix the leading concept is just the mean profile, which
    // would reward universally-high resources (CPU) over discriminative
    // ones (L1-i, LLC). Standardized concepts capture what actually
    // separates applications, matching the paper's observation that the
    // LLC and L1-i caches carry the most detection value.
    const linalg::Matrix& a = training_.matrix();
    size_t m = a.rows();
    size_t n = a.cols();
    linalg::Matrix standardized(m, sim::kNumResources);
    for (size_t c = 0; c < sim::kNumResources; ++c) {
        double mean = 0.0;
        for (size_t r = 0; r < m; ++r)
            mean += a(r, c);
        mean /= static_cast<double>(m);
        double var = 0.0;
        for (size_t r = 0; r < m; ++r)
            var += (a(r, c) - mean) * (a(r, c) - mean);
        double sd = std::sqrt(var / static_cast<double>(m));
        for (size_t r = 0; r < m; ++r)
            standardized(r, c) =
                sd > 1e-9 ? (a(r, c) - mean) / sd : 0.0;
        columnSpread_.push_back(sd);
    }
    linalg::SvdResult svd_std = linalg::svd(standardized);
    size_t std_rank = svd_std.rankForEnergy(config_.energyKept);

    resourceWeights_.assign(sim::kNumResources, 0.0);
    double total = 0.0;
    for (size_t i = 0; i < sim::kNumResources; ++i) {
        double w = 0.0;
        for (size_t k = 0; k < std_rank; ++k)
            w += svd_std.s[k] * svd_std.v(i, k) * svd_std.v(i, k);
        // Scale by the column's raw spread: a concept direction along a
        // wide-spread resource separates candidates by more pressure
        // points than the same direction along a narrow one.
        w *= columnSpread_[i];
        resourceWeights_[i] = w;
        total += w;
    }
    if (total > 0.0)
        for (auto& w : resourceWeights_)
            w /= total;

    // Hoist the query-invariant half of analyze()'s completion: the PQ
    // factors of the fully observed, normalized ([0, 1]) training block
    // are its truncated SVD, P = U * sqrt(S / 100) and
    // Q = V * sqrt(S / 100). The fold-in keeps Q and centres the victim
    // row on the centroid of P's rows, so only that centroid is kept.
    foldRank_ = std::max<size_t>(rank_, 4);
    foldQ_ = linalg::Matrix(n, foldRank_);
    foldPrior_.assign(foldRank_, 0.0);
    for (size_t k = 0; k < foldRank_ && k < svd_.s.size(); ++k) {
        double root = std::sqrt(std::max(0.0, svd_.s[k] / 100.0));
        double mean = 0.0;
        for (size_t r = 0; r < m; ++r)
            mean += svd_.u(r, k) * root;
        foldPrior_[k] = mean / static_cast<double>(m);
        for (size_t c = 0; c < n; ++c)
            foldQ_(c, k) = svd_.v(c, k) * root;
    }

    table_ = ScaledProfileTable(training_);

    // Entry-side half of the ranking's weighted Pearson (means,
    // variances and mean-centered columns under the resource weights),
    // hoisted out of the per-query sweep.
    pearson_ = linalg::buildPearsonTable(training_.columns(),
                                         resourceWeights_);
}

namespace {

/**
 * The calling thread's query scratch, created on its first query and
 * freed when the thread exits. One slot per thread serves every
 * recommender: a query never runs pool work while it holds the slot,
 * so no other query can reach it mid-use. Hits and creations feed
 * recommender.scratch_worker_hits and .scratch_spare_acquisitions.
 */
QueryScratch&
threadScratch()
{
    thread_local std::unique_ptr<QueryScratch> slot;
    auto& metrics = obs::MetricsRegistry::global();
    if (slot) {
        metrics.add(obs::MetricId::kRecommenderScratchWorkerHits);
    } else {
        slot = std::make_unique<QueryScratch>();
        metrics.add(obs::MetricId::kRecommenderScratchSpareAcquisitions);
    }
    return *slot;
}

/**
 * Counts one call and, when metrics are on, records its wall-clock
 * latency on destruction. The clock is only read when metrics are
 * enabled, so the disabled query path stays free of syscalls.
 */
class QueryTimer
{
  public:
    QueryTimer(obs::MetricId calls, obs::MetricId latency)
        : latency_(latency),
          metrics_(obs::MetricsRegistry::global()),
          timed_(metrics_.enabled())
    {
        metrics_.add(calls);
        if (timed_)
            start_ = std::chrono::steady_clock::now();
    }
    ~QueryTimer()
    {
        if (timed_) {
            double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
            metrics_.observe(latency_, us);
        }
    }

  private:
    obs::MetricId latency_;
    obs::MetricsRegistry& metrics_;
    bool timed_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace

void
HybridRecommender::completeRow(const SparseObservation& observation,
                               QueryScratch& s) const
{
    size_t n = training_.matrix().cols();

    // Stage 1 — collaborative filtering: complete the sparse victim row
    // by PQ-reconstruction. The training rows are fully observed, so
    // their factors are fixed by the SVD (constructor); only the
    // victim's factor row p is unknown, and with Q fixed its
    // L2-regularized least-squares fit to the victim's measured entries
    // has a closed form (linalg::foldInRow). Only Exact entries count,
    // since an Upper (aggregate) entry is not the victim's own pressure.
    // Pressures are normalized to [0, 1], as in the factors.
    sim::LaneArray<size_t> cols;
    sim::LaneArray<double> values;
    size_t exact = 0;
    for (size_t i = 0; i < s.obsCount; ++i) {
        if (s.obsExact[i]) {
            cols[exact] = s.obsIdx[i];
            values[exact] = s.obsVal[i] / 100.0;
            ++exact;
        }
    }
    double p[linalg::kMaxFoldInRank];
    linalg::foldInRow(foldQ_, {cols.data(), exact}, {values.data(), exact},
                      foldPrior_, kFoldInLambda, {p, foldRank_});

    s.fullRow.resize(n);
    std::vector<double>& full_row = s.fullRow;
    for (size_t c = 0; c < n; ++c)
        full_row[c] = linalg::dotOrdered(p, foldQ_.rowPtr(c), foldRank_);
    // Back to pressure points; Exact measurements are trusted over the
    // low-rank estimate, Upper bounds cap it.
    for (size_t c = 0; c < n; ++c) {
        auto res = static_cast<sim::Resource>(c);
        full_row[c] *= 100.0;
        if (observation.isExact(res))
            full_row[c] = observation.get(res);
        else if (observation.has(res))
            full_row[c] = std::min(full_row[c], observation.get(res));
        full_row[c] = std::clamp(full_row[c], 0.0, 100.0);
    }
}

void
HybridRecommender::finishAnalyze(const SparseObservation& observation,
                                 QueryScratch& s,
                                 SimilarityResult& result) const
{
    const linalg::Matrix& a = training_.matrix();
    size_t m = a.rows();
    size_t n = a.cols();
    std::vector<double>& full_row = s.fullRow;

    result.conceptsKept = rank_;
    result.reconstructed = sim::ResourceVector::fromVector(full_row);

    // Stage 2 — content-based matching. Direct evidence (the measured
    // coordinates) dominates: each candidate is compared on the observed
    // resources after fitting a load-scale factor (a victim at 60% load
    // exerts 0.6x its full-load profile; shape is what identifies it).
    // The CF-reconstructed full profile contributes a weighted-Pearson
    // term (Eq. 1) that disambiguates candidates that agree on the
    // observed coordinates.
    //
    // Both the level fit and the deviation score run as one blocked
    // kernel sweep over every entry (linalg::fitLevelsAndScore), with
    // the same per-coordinate contributions as before: Exact entries
    // absolute, Upper entries one-sided (other co-residents may account
    // for the remainder of the aggregate reading). The level is fitted
    // on the Exact coordinates only when any exist: aggregate (Upper)
    // readings carry other co-residents' pressure and would drag the
    // fit away from the attributable evidence.
    bool any_exact = s.exactCount > 0;
    for (size_t i = 0; i < s.obsCount; ++i) {
        size_t c = s.obsIdx[i];
        s.fitCoords[i] = {
            table_.baseCol(c), s.obsWeight[i], full_row[c],
            s.obsExact[i] ? linalg::DevMode::Abs : linalg::DevMode::Upper,
            sim::isCapacityResource(static_cast<sim::Resource>(c))};
    }
    linalg::FitSpec fit;
    fit.coords = s.fitCoords.data();
    fit.coordCount = s.obsCount;
    fit.iters = 18;
    fit.lo = ScaledProfileTable::kLevelMin;
    fit.hi = ScaledProfileTable::kLevelMax;
    fit.capacityFloor = workloads::kCapacityLoadFloor;
    fit.skipUpperInFit = any_exact;
    fit.fitWsum = any_exact ? s.wsumExact : s.wsumAll;
    fit.scoreWsum = s.wsumAll;
    s.levels.resize(table_.paddedEntries());
    s.scores.resize(table_.paddedEntries());
    linalg::fitLevelsAndScore(fit, m, s.levels.data(), s.scores.data());
    s.pearsonRow.resize(pearson_.centered.paddedRows());
    linalg::pearsonRow(pearson_, full_row.data(), s.pearsonRow.data());

    // With Upper (aggregate) entries present, the completed full_row is
    // contaminated by the other co-residents, so the Pearson shape term
    // would pull matches toward the blend; only the one-sided direct
    // match is trustworthy there.
    double direct_weight = s.hasUpper ? 1.0 : 0.7;

    result.ranking.reserve(m);
    for (size_t r = 0; r < m; ++r) {
        double direct = std::exp(-s.scores[r] / kMatchDistanceScale);
        double pearson = std::max(0.0, s.pearsonRow[r]);
        result.ranking.emplace_back(
            r, direct_weight * direct + (1.0 - direct_weight) * pearson);
    }
    // Best score first, ties in entry order: the ranking is built in
    // entry order, so this is the stable order, without the merge
    // buffer std::stable_sort would allocate per call.
    std::sort(result.ranking.begin(), result.ranking.end(),
              [](const auto& x, const auto& y) {
                  return x.second > y.second ||
                         (x.second == y.second && x.first < y.first);
              });

    if (!result.ranking.empty()) {
        result.topFittedLevel = s.levels[result.ranking.front().first];
    }

    // Detection confidence: the gap between the best match and the best
    // candidate of any other class. Two observed coordinates rarely
    // separate classes; five usually do.
    if (!result.ranking.empty()) {
        size_t top_class =
            training_.classIdOf(result.ranking.front().first);
        result.margin = result.ranking.front().second;
        for (size_t k = 1; k < result.ranking.size(); ++k) {
            if (training_.classIdOf(result.ranking[k].first) != top_class) {
                result.margin = result.ranking.front().second -
                                result.ranking[k].second;
                break;
            }
        }
    }

    // Feature augmentation: refine the unobserved coordinates of the
    // reconstruction with the best content match's profile. The
    // low-rank completion captures broad correlations; the matched
    // neighbor restores class-specific detail (e.g. memcached's zero
    // disk traffic).
    if (!result.ranking.empty() && result.ranking.front().second > 0.0) {
        std::span<const double> best =
            a.rowSpan(result.ranking.front().first);
        for (size_t c = 0; c < n; ++c) {
            auto res = static_cast<sim::Resource>(c);
            if (!observation.has(res)) {
                full_row[c] = std::clamp(
                    0.4 * full_row[c] + 0.6 * best[c], 0.0, 100.0);
            }
        }
        result.reconstructed = sim::ResourceVector::fromVector(full_row);
    }

    // Distribution over the strongest distinct classes: positive scores
    // normalized to shares, which is how the paper reports matches
    // ("65% similar to memcached, 18% to Spark PageRank, ...").
    // Classes are compared by interned id; label strings are only
    // copied for the returned top-K entries.
    s.classScores.clear();
    for (const auto& [idx, score] : result.ranking) {
        if (score <= 0.0 || s.classScores.size() >= config_.topK)
            break;
        size_t cls = training_.classIdOf(idx);
        bool seen = false;
        for (const auto& [c2, sc] : s.classScores) {
            if (c2 == cls) {
                seen = true;
                break;
            }
        }
        if (!seen)
            s.classScores.emplace_back(cls, score);
    }
    double total = 0.0;
    for (const auto& [cls, sc] : s.classScores)
        total += sc;
    if (total > 0.0)
        for (auto& [cls, sc] : s.classScores)
            sc /= total;
    result.distribution.reserve(s.classScores.size());
    for (const auto& [cls, sc] : s.classScores)
        result.distribution.emplace_back(training_.className(cls), sc);

    // Partial-observation confidence: discount the top similarity by
    // the observed share of the importance-weighted resource space
    // (resourceWeights_ sums to 1, so wsumAll is that share). The sqrt
    // keeps the discount gentle when only low-value resources are
    // missing but steep for sliver observations — a perfect correlation
    // over two probed resources is not a confident identification.
    result.confidence = result.topScore() *
                        std::sqrt(std::clamp(s.wsumAll, 0.0, 1.0));
}

SimilarityResult
HybridRecommender::analyze(const SparseObservation& observation) const
{
    QueryTimer timer(obs::MetricId::kRecommenderAnalyzeCalls,
                     obs::MetricId::kRecommenderAnalyzeWallUs);
    SimilarityResult result;

    QueryScratch& s = threadScratch();
    unpackObservation(observation, resourceWeights_, s);
    completeRow(observation, s);
    finishAnalyze(observation, s, result);
    return result;
}

Decomposition
HybridRecommender::decompose(const SparseObservation& observation,
                             bool core_shared, size_t max_parts,
                             size_t prune) const
{
    QueryTimer timer(obs::MetricId::kRecommenderDecomposeCalls,
                     obs::MetricId::kRecommenderDecomposeWallUs);
    // Accumulated locally in the hot loop, published once at the end.
    uint64_t prune_skipped = 0;
    uint64_t prune_evaluated = 0;

    size_t m = training_.size();

    QueryScratch& s = threadScratch();
    unpackObservation(observation, resourceWeights_, s);

    s.shortlist.clear();
    s.shortlist.reserve(m);
    s.bestParts.reserve(max_parts + 1);
    s.improvedParts.reserve(max_parts + 1);
    s.baseParts.reserve(max_parts + 1);
    s.levels.resize(table_.paddedEntries());
    s.scores.resize(table_.paddedEntries());
    s.oneCellBounds.resize(table_.paddedEntries());
    s.gated.resize(table_.paddedEntries());
    s.gridBounds.resize(table_.paddedEntries());

    // Shortlist part-0 candidates. With a shared core, the core signal
    // is single-tenant, so the shortlist ranks candidates on the core
    // coordinates alone — ranking on the whole aggregate would anchor
    // part 0 to ghost blends. Without core sharing, every entry
    // competes on the full (uncore) signal, which is exactly the solo
    // fit below, so that ranking reuses its kernel sweep.
    if (core_shared) {
        for (size_t i = 0; i < s.coreCount; ++i) {
            size_t c = s.coreIdx[i];
            s.fitCoords[i] = {
                table_.baseCol(c), s.coreWeight[i], s.coreVal[i],
                linalg::DevMode::Abs,
                sim::isCapacityResource(static_cast<sim::Resource>(c))};
        }
        linalg::FitSpec core_fit;
        core_fit.coords = s.fitCoords.data();
        core_fit.coordCount = s.coreCount;
        core_fit.iters = 12;
        core_fit.lo = ScaledProfileTable::kLevelMin;
        core_fit.hi = ScaledProfileTable::kLevelMax;
        core_fit.capacityFloor = workloads::kCapacityLoadFloor;
        core_fit.fitWsum = s.coreWsum;
        core_fit.scoreWsum = s.coreWsum;
        linalg::fitLevelsAndScore(core_fit, m, s.levels.data(),
                                  s.scores.data());
        for (size_t i = 0; i < m; ++i)
            s.shortlist.emplace_back(s.scores[i], i);
    }

    // Solo fit of every entry against the full observation: weighted
    // absolute deviation from the entry's load-scaled profile, with
    // core coordinates explained by the entry itself when a core is
    // shared and by nothing otherwise (no co-resident touches the
    // adversary's cores).
    for (size_t i = 0; i < s.obsCount; ++i) {
        size_t c = s.obsIdx[i];
        bool core = sim::isCoreResource(static_cast<sim::Resource>(c));
        s.fitCoords[i] = {
            table_.baseCol(c), s.obsWeight[i], s.obsVal[i],
            core && !core_shared ? linalg::DevMode::Zero
                                 : linalg::DevMode::Abs,
            sim::isCapacityResource(static_cast<sim::Resource>(c))};
    }
    linalg::FitSpec solo_fit;
    solo_fit.coords = s.fitCoords.data();
    solo_fit.coordCount = s.obsCount;
    solo_fit.iters = 12;
    solo_fit.lo = ScaledProfileTable::kLevelMin;
    solo_fit.hi = ScaledProfileTable::kLevelMax;
    solo_fit.capacityFloor = workloads::kCapacityLoadFloor;
    solo_fit.fitWsum = s.wsumAll;
    solo_fit.scoreWsum = s.wsumAll;
    linalg::fitLevelsAndScore(solo_fit, m, s.levels.data(),
                              s.scores.data());

    if (!core_shared) {
        for (size_t i = 0; i < m; ++i)
            s.shortlist.emplace_back(s.scores[i], i);
    }
    std::sort(s.shortlist.begin(), s.shortlist.end());
    size_t k0 = std::min(prune, s.shortlist.size());

    // Best single-part explanation over the full observation (the
    // shortlist above may be core-anchored, which is the wrong ranking
    // for the single-tenant hypothesis).
    double best_distance = 1e9;
    s.bestParts.clear();
    {
        bool best_found = false;
        size_t best_idx = 0;
        for (size_t i = 0; i < m; ++i) {
            double d = s.scores[i];
            if (d < best_distance) {
                best_distance = d;
                best_idx = i;
                best_found = true;
            }
        }
        if (best_found)
            s.bestParts.push_back({best_idx, s.levels[best_idx]});
    }

    // Greedy widening: add a part while it improves the explanation
    // meaningfully (Occam margin), re-fitting levels by coordinate
    // descent. The candidate pool for the added part is the full
    // training set, walked in order: each candidate's bound is checked
    // against the incumbent, capped at the Occam threshold, and the
    // survivors queue up, across the depth's anchors, until they fill
    // the blocks linalg::widenFit refits together (lanes independent,
    // so the fold below reproduces the one-candidate-at-a-time search
    // bit for bit). Part 0 stays within the anchored shortlist.
    for (size_t i = 0; i < s.obsCount; ++i) {
        size_t c = s.obsIdx[i];
        linalg::WidenCoord& wc = s.widenCoords[i];
        wc.weight = s.obsWeight[i];
        wc.target = s.obsVal[i];
        wc.core = sim::isCoreResource(static_cast<sim::Resource>(c));
        wc.capacity = sim::isCapacityResource(static_cast<sim::Resource>(c));
    }
    const size_t refit_lanes = linalg::widenFitLanes();
    for (size_t depth = 2; depth <= max_parts; ++depth) {
        double improved_distance = best_distance;
        // The largest distance the Occam test below accepts at this
        // depth, up to the rounding of best_distance - kOccamGain.
        const double occam_cap = std::min(best_distance * kOccamRatio,
                                          best_distance - kOccamGain);
        s.improvedParts = s.bestParts;
        bool found = false;

        // Every anchor at this depth extends depth - 1 base parts: the
        // shortlist anchor at depth 2, the incumbent's parts beyond.
        const size_t num_parts = depth;
        const size_t n = s.obsCount;
        for (size_t p = 0; p < num_parts; ++p)
            for (size_t i = 0; i < n; ++i) {
                const double* col =
                    s.widenPack + (p * n + i) * kRefitLanes;
                if (p + 1 < num_parts)
                    s.fixedPtrs[p * n + i] = col;
                else
                    s.candPtrs[i] = col;
            }
        for (size_t p = 0; p + 1 < num_parts; ++p)
            s.levelPtrs[p] = s.levelPack + p * kRefitLanes;
        linalg::WidenSpec wspec;
        wspec.coords = s.widenCoords.data();
        wspec.coordCount = n;
        wspec.partCount = num_parts;
        wspec.fixedBase = s.fixedPtrs;
        wspec.candBase = s.candPtrs;
        wspec.fixedInitLevels = s.levelPtrs;
        wspec.candInitLevel = 0.8;
        wspec.coreShared = core_shared;
        wspec.wsum = s.wsumAll;
        wspec.rounds = 2;
        wspec.iters = 12;
        wspec.lo = ScaledProfileTable::kLevelMin;
        wspec.hi = ScaledProfileTable::kLevelMax;
        wspec.capacityFloor = workloads::kCapacityLoadFloor;

        // Refit the queued candidates together and fold them in queue
        // order, which is (anchor, candidate) order: a lane's deviation
        // does not depend on the incumbent, so this reproduces the
        // sequential search's improvement trajectory exactly. Tail lanes
        // get zero bases and levels, which keep them finite.
        size_t n_queued = 0;
        auto refit_queued = [&]() {
            const size_t lanes = linalg::paddedCount(n_queued);
            for (size_t i = 0; i < n; ++i) {
                const double* src = table_.baseCol(s.obsIdx[i]);
                for (size_t p = 0; p < num_parts; ++p) {
                    double* dst = s.widenPack + (p * n + i) * kRefitLanes;
                    for (size_t q = 0; q < n_queued; ++q)
                        dst[q] = src[p + 1 < num_parts
                                         ? s.queuedBase[q][p].index
                                         : s.queued[q]];
                    std::fill(dst + n_queued, dst + lanes, 0.0);
                }
            }
            for (size_t p = 0; p + 1 < num_parts; ++p) {
                double* dst = s.levelPack + p * kRefitLanes;
                for (size_t q = 0; q < n_queued; ++q)
                    dst[q] = s.queuedBase[q][p].level;
                std::fill(dst + n_queued, dst + lanes, 0.0);
            }
            linalg::widenFit(wspec, n_queued, s.widenDist, s.widenLevels);
            for (size_t q = 0; q < n_queued; ++q) {
                ++prune_evaluated;
                double d = s.widenDist[q];
                if (d < improved_distance) {
                    improved_distance = d;
                    found = true;
                    s.improvedParts.clear();
                    for (size_t p = 0; p + 1 < num_parts; ++p)
                        s.improvedParts.push_back(
                            {s.queuedBase[q][p].index,
                             s.widenLevels[q * num_parts + p]});
                    s.improvedParts.push_back(
                        {s.queued[q],
                         s.widenLevels[q * num_parts + (num_parts - 1)]});
                }
            }
            n_queued = 0;
        };

        for (size_t s0 = 0; s0 < k0; ++s0) {
            // Re-anchoring part 0 per candidate only matters at depth 2;
            // beyond that the incumbent parts are kept.
            if (depth == 2) {
                s.baseParts.clear();
                s.baseParts.push_back({s.shortlist[s0].second, 0.8});
            } else {
                // Deeper searches keep the incumbent parts but still
                // re-anchor part 0 within the strongest few shortlist
                // candidates (a wrong early anchor would otherwise lock
                // in a bad decomposition). Without a shared core the
                // anchor is not re-seated, so a later pass would rerun
                // the first on identical inputs and never beat it.
                if (s0 >= 4 || (s0 > 0 && !core_shared))
                    break;
                s.baseParts = s.bestParts;
                if (s0 > 0)
                    s.baseParts[0] = {s.shortlist[s0].second, 0.8};
            }
            bool prune_ok = s.wsumAll > 0.0;
            if (!prune_ok) {
                // A weightless observation scores every candidate at
                // the 1e9 sentinel, which never beats the incumbent;
                // the reference loop still counted each candidate as
                // evaluated.
                prune_evaluated += m;
                continue;
            }

            // Candidate-independent halves of the prune bounds. The
            // one-cell bound lets every coordinate take its own level
            // anywhere in the range. At depth 2 the anchor is the only
            // base part, so the grid bound then ties all coordinates to
            // one level cell per part. Base sums run in part order, like
            // the exact evaluation.
            const bool grid = depth == 2;
            const size_t anchor = s.baseParts[0].index;
            for (size_t i = 0; i < n; ++i) {
                size_t c = s.obsIdx[i];
                bool core = s.widenCoords[i].core;
                double lo_sum = 0.0, hi_sum = 0.0;
                if (!core) {
                    for (const auto& p : s.baseParts) {
                        lo_sum += table_.edge(p.index, c, 0);
                        hi_sum += table_.edge(p.index, c, kCells);
                    }
                } else if (core_shared) {
                    lo_sum = table_.edge(anchor, c, 0);
                    hi_sum = table_.edge(anchor, c, kCells);
                }
                linalg::PruneCoord& pc = s.pruneCoords[i];
                pc.additive = !core;
                pc.weight = s.obsWeight[i];
                pc.target = s.obsVal[i];
                pc.base[0] = lo_sum;
                pc.base[1] = hi_sum;
                pc.cand[0] = table_.edgeCol(c, 0);
                pc.cand[1] = table_.edgeCol(c, kCells);
                if (grid) {
                    linalg::PruneCoord& gc = s.gridCoords[i];
                    gc = pc;
                    for (size_t k = 0; k <= kCells; ++k) {
                        gc.base[k] = core && !core_shared
                                         ? 0.0
                                         : table_.edge(anchor, c, k);
                        gc.cand[k] = table_.edgeCol(c, k);
                    }
                }
            }

            // Lower-bound every candidate's best reachable deviation; a
            // candidate whose bound cannot beat the incumbent skips the
            // coordinate descent. Every step of a bound is a monotone
            // floating-point operation on quantities that bound the
            // exact evaluation's, and the descent's final levels lie
            // inside the grid, so pruning never changes the search's
            // outcome. Candidates gated while others wait in the queue,
            // this anchor's or an earlier one's, see the incumbent from
            // before that queue's refit; a stale incumbent only admits
            // candidates the fold then rejects. So the bounds are
            // computed once per anchor, and each is compared against
            // the incumbent when the walk reaches its candidate: every
            // candidate's one-cell bound in one call, then at depth 2
            // the grid bounds of the candidates that pass it under the
            // anchor's starting incumbent in a second (the incumbent
            // only falls, so no other candidate can pass later).
            //
            // The incumbent is capped at occam_cap: a candidate whose
            // bound lies above it refits to a distance the Occam test
            // rejects, so it cannot be this depth's best when some
            // candidate passes the test, and when none does the depth
            // is rejected either way. The test is monotone in the
            // distance, and kPruneSlack covers the cap's rounding.
            auto uncompetitive = [&](double bound) {
                return bound / s.wsumAll >
                       std::min(improved_distance, occam_cap) + kPruneSlack;
            };
            linalg::pruneBounds(s.pruneCoords.data(), n, 1, m,
                                s.oneCellBounds.data());
            size_t n_gated = 0;
            for (size_t j = 0; j < m; ++j) {
                if (uncompetitive(s.oneCellBounds[j]))
                    ++prune_skipped;
                else
                    s.gated[n_gated++] = static_cast<uint32_t>(j);
            }
            if (grid && n_gated > 0) {
                std::fill(s.gated.begin() + static_cast<long>(n_gated),
                          s.gated.begin() +
                              static_cast<long>(linalg::paddedCount(n_gated)),
                          0u);
                linalg::pruneBounds(s.gridCoords.data(), n, kCells, n_gated,
                                    s.gridBounds.data(), s.gated.data());
            }
            for (size_t g = 0; g < n_gated; ++g) {
                const size_t j = s.gated[g];
                if (uncompetitive(s.oneCellBounds[j]) ||
                    (grid && uncompetitive(s.gridBounds[g]))) {
                    ++prune_skipped;
                    continue;
                }
                s.queued[n_queued] = j;
                std::copy(s.baseParts.begin(), s.baseParts.end(),
                          s.queuedBase[n_queued]);
                if (++n_queued == refit_lanes)
                    refit_queued();
            }
        }
        if (n_queued > 0)
            refit_queued();
        // Occam margin: an extra tenant must reduce the unexplained
        // signal meaningfully, or the simpler explanation stands.
        if (!found || improved_distance > best_distance * kOccamRatio ||
            best_distance - improved_distance < kOccamGain) {
            break;
        }
        best_distance = improved_distance;
        s.bestParts = s.improvedParts;
    }

    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::MetricId::kRecommenderPruneSkipped, prune_skipped);
    metrics.add(obs::MetricId::kRecommenderPruneEvaluated,
                prune_evaluated);

    Decomposition best;
    best.parts = s.bestParts;
    best.distance = best_distance;
    best.score = std::exp(-best.distance / kMatchDistanceScale);
    return best;
}

sim::ResourceVector
HybridRecommender::resourceImportance() const
{
    sim::ResourceVector out;
    for (size_t i = 0; i < sim::kNumResources; ++i)
        out.at(i) = resourceWeights_[i];
    return out;
}

} // namespace core
} // namespace bolt
