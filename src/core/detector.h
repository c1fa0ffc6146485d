#ifndef BOLT_CORE_DETECTOR_H
#define BOLT_CORE_DETECTOR_H

#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/recommender.h"

namespace bolt {
namespace core {

/** Re-detection period in seconds (the paper's 20 s). */
constexpr double kProfilingIntervalSec = 20.0;

/** Detection policy knobs (Sections 3.2-3.4). */
struct DetectorConfig
{
    ProfilerConfig profiler;
    /** Iteration cap; jobs not identified by then never are (Fig. 7). */
    int maxIterations = 6;
    /** Maximum co-residents the disentangler decomposes per round. */
    int maxCoResidents = 5;
    /**
     * Minimum probed resources before a match is accepted; rounds with
     * thinner coverage keep probing even when a match looks confident.
     */
    int minObservedForMatch = 6;
    /** Enable shutter profiling when nothing is confidently matched. */
    bool shutterEnabled = true;
    /**
     * Extra probes added within a round when the first analysis is
     * inconclusive; in-round probes are temporally coherent.
     */
    int extraProbesWhenUnconfident = 8;
    /**
     * Carry observations across rounds. Widens coverage but mixes load
     * phases of diurnal victims, so it is off by default; each round is
     * a temporally-coherent snapshot.
     */
    bool carryObservations = false;
    /**
     * The measurement channel Bolt assumes when reporting profiles: the
     * platform's baseline visibility is inverted so reported profiles
     * are in true pressure space. When the cloud applies *stronger*
     * isolation than assumed, reported profiles underestimate — exactly
     * the Section 6 degradation.
     */
    sim::IsolationConfig assumedChannel =
        sim::IsolationConfig::none(sim::Platform::VirtualMachine);
};

/** One detected co-resident. */
struct CoResidentGuess
{
    std::string classLabel;     ///< "family:variant" of the best match.
    double similarity = 0.0;    ///< Weighted-Pearson score of the match.
    sim::ResourceVector profile; ///< Reconstructed full pressure profile.
    /** Similarity distribution ("65% memcached, 18% spark:pagerank"). */
    std::vector<std::pair<std::string, double>> distribution;
};

/** Outcome of one detection round on a host. */
struct DetectionRound
{
    std::vector<CoResidentGuess> guesses; ///< Strongest match first.
    double profilingSec = 0.0; ///< Virtual profiling time consumed.
    int benchmarksRun = 0;
    bool usedShutter = false;
    bool coreShared = false;
    /** Raw aggregate observation before disentangling. */
    SparseObservation aggregate;
    /** Probe samples lost to fault-injected dropouts (masked, not 0). */
    int droppedSamples = 0;
    /** Backed-off re-measurement rounds spent recovering coverage. */
    int retryRounds = 0;
    /**
     * The round abstained: coverage stayed below minObservedForMatch
     * after every retry, so no guess is emitted — an explicit "don't
     * know" instead of a silent mislabel. Only possible under faults.
     */
    bool abstained = false;
    /**
     * Whole-signal confidence of the analysis behind this round: the
     * top similarity discounted by observation coverage (see
     * SimilarityResult::confidence). 0 when nothing was analyzed.
     */
    double confidence = 0.0;

    /** Top guess class, empty when nothing cleared the floor. */
    std::string topClass() const;
};

/**
 * Bolt's detection engine: runs one profiling round on a host
 * environment, feeds the sparse signal to the hybrid recommender, and
 * disentangles multiple co-residents (Section 3.3):
 *
 *  - the aggregate is decomposed into per-tenant parts with
 *    HybridRecommender::decompose, one guess per part;
 *  - no confident match with core pressure -> extra core benchmark;
 *  - no confident match without core sharing -> shutter profiling.
 *
 * The periodic protocol (a round every kProfilingIntervalSec until the
 * victim is identified or maxIterations is reached) is
 * ControlledExperiment::run's loop.
 */
class Detector
{
  public:
    Detector(const HybridRecommender& recommender,
             DetectorConfig config = {});

    /**
     * One full detection round starting at virtual time t.
     *
     * Thread-safety: const and free of hidden state — safe to call
     * concurrently from multiple threads on the same Detector, provided
     * each caller owns its Rng and HostEnvironment. The focus-core
     * rotation that a shared mutable counter used to provide is now the
     * caller's `round_index`, which keeps results independent of the
     * order hosts are processed in (and hence of the thread count).
     *
     * @param prior Optional observation carried from earlier rounds;
     *              unprobed resources inherit its values, widening the
     *              recommender's signal as iterations accumulate.
     * @param round_index Rotates the focus core across rounds; pass the
     *              iteration number (or any per-host counter). -1 picks
     *              the focus core randomly from `rng`.
     */
    DetectionRound detectOnce(const HostEnvironment& env, double t,
                              util::Rng& rng,
                              const SparseObservation* prior = nullptr,
                              int round_index = 0) const;

  private:
    const HybridRecommender& recommender_;
    DetectorConfig config_;
    Profiler profiler_;
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_DETECTOR_H
