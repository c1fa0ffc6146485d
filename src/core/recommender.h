#ifndef BOLT_CORE_RECOMMENDER_H
#define BOLT_CORE_RECOMMENDER_H

#include <string>
#include <utility>
#include <vector>

#include "core/observation.h"
#include "core/profile_table.h"
#include "core/training.h"
#include "linalg/kernels.h"
#include "linalg/svd.h"

namespace bolt {

namespace core {

struct QueryScratch;

/** Tuning knobs for the hybrid recommender (Section 3.2). */
struct RecommenderConfig
{
    /** Energy fraction preserved when keeping the top r concepts. */
    double energyKept = 0.90;
    /** Confidence floor: below this, detection is inconclusive. */
    double confidenceFloor = 0.10;
    /**
     * Margin floor: the top match must beat the best *different-class*
     * candidate by this much, or the signal is ambiguous (typically
     * because too few resources were probed) and detection is
     * inconclusive.
     */
    double marginFloor = 0.06;
    /** Entries reported in the similarity distribution. */
    size_t topK = 5;
};

/** Output of one analysis round. */
struct SimilarityResult
{
    /** (training-set index, weighted-Pearson similarity), descending. */
    std::vector<std::pair<size_t, double>> ranking;
    /**
     * Normalized similarity distribution over the top-K matches:
     * (class label, probability-like share), e.g. the paper's
     * "65% memcached, 18% spark:pagerank, ...".
     */
    std::vector<std::pair<std::string, double>> distribution;
    /** CF-reconstructed full 10-resource pressure profile. */
    sim::ResourceVector reconstructed;
    /** Number of similarity concepts kept (rank r at 90% energy). */
    size_t conceptsKept = 0;
    /** topScore minus the best score of a *different* class. */
    double margin = 0.0;
    /**
     * Input-load level at which the top match's full-load profile best
     * fits the observation — the recommender's estimate of the victim's
     * current load. Used to peel the match off an aggregate signal.
     */
    double topFittedLevel = 1.0;
    /**
     * Partial-observation confidence: topScore() discounted by how much
     * of the importance-weighted resource space the query actually
     * measured (sqrt of the observed weight mass, so missing low-value
     * resources costs little). A full 10-resource observation keeps the
     * raw score; a 2-probe sliver is trusted far less even when the
     * sliver correlates perfectly. In [0, 1].
     */
    double confidence = 0.0;

    /** Best similarity score; 0 when the ranking is empty. */
    double topScore() const;
    /** Whether the match is both strong and unambiguous. */
    bool confident(double floor, double margin_floor) const
    {
        return topScore() >= floor && margin >= margin_floor;
    }
};

/** One component of an additive decomposition of an aggregate signal. */
struct DecompositionPart
{
    size_t index = 0;     ///< Training-set entry index.
    double level = 1.0;   ///< Fitted input-load level.
};

/**
 * Additive explanation of an aggregate observation: the sum of the
 * parts' load-scaled profiles best matches the measured signal
 * (Section 3.3's linear-additivity assumption made into an estimator).
 */
struct Decomposition
{
    std::vector<DecompositionPart> parts;
    double distance = 1e9; ///< Weighted mean deviation, pressure points.
    double score = 0.0;    ///< exp(-distance / scale).
};

/**
 * The hybrid recommender with feature augmentation (Section 3.2): a
 * collaborative-filtering stage (SVD + PQ-reconstruction) recovers the
 * pressure the victim places on non-profiled resources, then a
 * content-based stage ranks previously-seen applications by weighted
 * Pearson similarity (Eq. 1), where the weights come from the r
 * strongest similarity concepts.
 *
 * SVD runs once per training set. The training block is fully observed,
 * so its PQ factors are the truncated SVD; each query folds its sparse
 * row in against the fixed column factors (a k x k ridge solve,
 * linalg::foldInRow) plus one weighted-Pearson pass.
 *
 * Everything query-invariant is hoisted into the constructor: the
 * column factors and the centroid row the fold-in is centred on, and a
 * flat table of load-scaled training profiles (ScaledProfileTable).
 * Per-query working memory lives in one reusable QueryScratch per thread,
 * shared by every recommender, so after each thread's first query the hot
 * loops of analyze() and decompose() perform no heap allocation (only
 * the returned result vectors are freshly built). All caching is
 * invisible in the outputs: results are bit-identical to the uncached
 * computation.
 *
 * Thread-safety: construction is not thread-safe, but a constructed
 * recommender behaves as immutable — analyze(), decompose() and the
 * other const members may be called concurrently from any number of
 * threads (the parallel experiment engine shares one instance across
 * all per-server detection tasks). Internally each concurrent caller
 * uses its own thread's QueryScratch; a query never runs pool work
 * while it holds it, so no other query can reach it mid-use.
 * The referenced TrainingSet must outlive the recommender and must not
 * be mutated during queries.
 *
 * Units: observation and profile entries are resource-pressure
 * percentage points in [0, 100]; similarity scores and distribution
 * shares are dimensionless in [0, 1].
 */
class HybridRecommender
{
  public:
    HybridRecommender(const TrainingSet& training,
                      RecommenderConfig config = {});

    HybridRecommender(const HybridRecommender&) = delete;
    HybridRecommender& operator=(const HybridRecommender&) = delete;

    /** Analyze one sparse profiling signal. */
    SimilarityResult analyze(const SparseObservation& observation) const;

    /**
     * Explain an aggregate observation as the sum of up to `max_parts`
     * previously-seen applications (Section 3.3): uncore readings are
     * the sum of every co-resident's pressure; core readings belong to
     * the focus core's hyperthread sibling alone (`core_shared`), or to
     * nobody when no core is shared.
     *
     * Parts are added greedily while they improve the explanation by a
     * meaningful margin, so a single-tenant signal yields a single part.
     *
     * @param observation Aggregate readings (bounds are ignored; the
     *                    decomposition treats everything as measured).
     * @param core_shared Whether core entries are attributable to the
     *                    first part (the focus-core sibling).
     * @param max_parts   Co-resident cap (the paper disentangles 2-3),
     *                    at most linalg::kMaxWidenParts, the parts the
     *                    refit queue holds per lane.
     * @param prune       Sibling candidates shortlisted for part one.
     */
    Decomposition decompose(const SparseObservation& observation,
                            bool core_shared, size_t max_parts = 3,
                            size_t prune = 24) const;

    /**
     * Per-resource detection value (the "system insights" of Section
     * 3.2): how much each resource contributes to the kept similarity
     * concepts, i.e. w_i = sum_k sigma_k * V(i,k)^2 normalized to 1.
     * Resources with high weight leak the most information and should be
     * isolated first.
     */
    sim::ResourceVector resourceImportance() const;

    /** Number of concepts kept at the configured energy fraction. */
    size_t conceptsKept() const { return rank_; }

    /** Singular values of the training matrix (decreasing). */
    const std::vector<double>& singularValues() const { return svd_.s; }

    const TrainingSet& training() const { return training_; }
    const RecommenderConfig& config() const { return config_; }

  private:
    /**
     * Stage 1 of analyze(): unpack + CF completion of the victim row
     * into s.fullRow (pressure points, overrides applied).
     */
    void completeRow(const SparseObservation& observation,
                     QueryScratch& s) const;
    /**
     * Stage 2 of analyze(): content ranking (level fit and weighted
     * Pearson against every entry), augmentation and distribution,
     * consuming s.fullRow.
     */
    void finishAnalyze(const SparseObservation& observation,
                       QueryScratch& s, SimilarityResult& result) const;

    const TrainingSet& training_;
    RecommenderConfig config_;
    linalg::SvdResult svd_;
    size_t rank_ = 0;
    std::vector<double> resourceWeights_; ///< w_i, normalized.
    std::vector<double> columnSpread_;    ///< Per-resource training stddev.

    // Query-invariant caches, built once in the constructor.
    size_t foldRank_ = 0;  ///< max(rank_, 4): completion rank k.
    linalg::Matrix foldQ_; ///< n x k column factors, V * sqrt(S / 100).
    /** Centroid of the training rows' factors U * sqrt(S / 100). */
    std::vector<double> foldPrior_;
    ScaledProfileTable table_; ///< Load-scaled training profiles.
    /** Entry-side half of the ranking's weighted Pearson, hoisted. */
    linalg::PearsonTable pearson_;
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_RECOMMENDER_H
