#include "detector.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace bolt {
namespace core {

namespace {

/**
 * Fault-aware graceful degradation (active only when the host
 * environment carries a fault oracle): when dropouts leave a round with
 * fewer than minObservedForMatch samples, re-probe the missing
 * resources for up to this many re-measurement rounds before giving up.
 */
constexpr int kMaxRetryRounds = 2;
/**
 * Sim-time wait before the first re-measurement round; each further
 * round multiplies it by kRetryBackoffMult (exponential backoff —
 * transient measurement faults decorrelate with distance in time).
 */
constexpr double kRetryBackoffSec = 2.0;
constexpr double kRetryBackoffMult = 2.0;

} // namespace

std::string
DetectionRound::topClass() const
{
    return guesses.empty() ? std::string{} : guesses.front().classLabel;
}

Detector::Detector(const HybridRecommender& recommender,
                   DetectorConfig config)
    : recommender_(recommender), config_(config),
      profiler_(config.profiler)
{
}

DetectionRound
Detector::detectOnce(const HostEnvironment& env, double t, util::Rng& rng,
                     const SparseObservation* prior,
                     int round_index) const
{
    DetectionRound round;
    double now = t;
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::MetricId::kDetectorRounds);
    // Windowed telemetry is keyed by round index so the analyzer can
    // show how retries and abstentions concentrate in later rounds.
    auto& telemetry = obs::TimeSeriesRecorder::global();
    if (telemetry.enabled())
        telemetry.count(obs::SeriesId::kDetectorRoundEvents,
                        obs::indexedLabel('r', round_index), t);

    ProfileRound prof = profiler_.profile(env, now, rng, round_index);
    now += prof.durationSec;
    round.benchmarksRun += prof.benchmarksRun;
    round.coreShared = prof.coreShared;
    round.droppedSamples = prof.droppedSamples;
    if (prior)
        prof.observation.mergeFrom(*prior);
    round.aggregate = prof.observation;

    double floor = recommender_.config().confidenceFloor;
    double mfloor = recommender_.config().marginFloor;

    size_t core_seen = 0;
    for (sim::Resource r : sim::kCoreResources)
        if (prof.observation.has(r))
            ++core_seen;

    // A thin snapshot is widened whatever the analysis says, and the
    // widened one is re-analyzed before anything reads the result, so
    // the first analysis runs only when coverage alone does not force
    // widening. A default round's two or three probes are always thin.
    bool thin = prof.observation.observedCount() <
                    static_cast<size_t>(config_.minObservedForMatch) ||
                (prof.coreShared && core_seen < 3);
    SimilarityResult whole;
    if (!thin)
        whole = recommender_.analyze(prof.observation.allExact());

    if (thin || !whole.confident(floor, mfloor)) {
        // Inconclusive or thin signal: widen the in-round snapshot with
        // extra probes (temporally coherent — a round fits in seconds).
        metrics.add(obs::MetricId::kDetectorExtraProbeRounds);
        auto probe_one = [&](sim::Resource r) {
            double raw = profiler_.measureResource(env, r, prof.focusCore,
                                                   now, rng);
            now += Microbenchmark::rampDurationSec(raw);
            ++round.benchmarksRun;
            metrics.add(obs::MetricId::kDetectorExtraProbes);
            // Dropped probes are masked, not recorded as zero pressure.
            auto kept = Profiler::applySampleFaults(env, raw, now);
            if (kept)
                prof.observation.set(r, *kept);
            else
                ++round.droppedSamples;
        };
        int extra = config_.extraProbesWhenUnconfident;
        if (prof.coreShared) {
            for (sim::Resource r : sim::kCoreResources) {
                if (extra <= 0)
                    break;
                if (!prof.observation.has(r)) {
                    probe_one(r);
                    --extra;
                }
            }
        }
        for (sim::Resource r : sim::kUncoreResources) {
            if (extra <= 0)
                break;
            if (!prof.observation.has(r)) {
                probe_one(r);
                --extra;
            }
        }
        round.aggregate = prof.observation;
        whole = recommender_.analyze(prof.observation.allExact());

        if (!whole.confident(floor, mfloor) && !prof.coreShared &&
            config_.shutterEnabled) {
            // No core sharing: only uncore pressure is available, and it
            // aggregates every co-resident. Shutter windows catch a
            // low-load phase that exposes a single tenant.
            ProfileRound shutter =
                profiler_.shutterProfile(env, now, rng);
            now += shutter.durationSec;
            round.benchmarksRun += shutter.benchmarksRun;
            round.usedShutter = true;
            metrics.add(obs::MetricId::kDetectorShutterRounds);
            SimilarityResult via_shutter =
                recommender_.analyze(shutter.observation);
            if (via_shutter.topScore() > whole.topScore()) {
                whole = via_shutter;
                prof.observation = shutter.observation;
            }
        }
    }

    // Graceful degradation under measurement faults: dropouts can leave
    // the round thinner than minObservedForMatch even after the extra
    // probes, and matching on a sliver silently mislabels. Re-probe the
    // missing resources in bounded re-measurement rounds, backing off
    // exponentially in sim-time (transient faults decorrelate with
    // temporal distance); if coverage never recovers, abstain — an
    // explicit "don't know" beats a guess the caller cannot audit.
    if (env.faults && prof.observation.observedCount() <
                          static_cast<size_t>(config_.minObservedForMatch)) {
        double backoff = kRetryBackoffSec;
        while (round.retryRounds < kMaxRetryRounds &&
               prof.observation.observedCount() <
                   static_cast<size_t>(config_.minObservedForMatch)) {
            ++round.retryRounds;
            metrics.add(obs::MetricId::kDetectorRetryRounds);
            if (telemetry.enabled())
                telemetry.count(obs::SeriesId::kDetectorRetryEvents,
                                obs::indexedLabel('r', round_index), now);
            now += backoff;
            backoff *= kRetryBackoffMult;
            for (sim::Resource r : sim::kAllResources) {
                if (prof.observation.observedCount() >=
                    static_cast<size_t>(config_.minObservedForMatch))
                    break;
                if (prof.observation.has(r))
                    continue;
                if (sim::isCoreResource(r) && !prof.coreShared)
                    continue; // No core sharing: core probes read zero.
                double raw = profiler_.measureResource(
                    env, r, prof.focusCore, now, rng);
                now += Microbenchmark::rampDurationSec(raw);
                ++round.benchmarksRun;
                metrics.add(obs::MetricId::kDetectorRetryProbes);
                auto kept = Profiler::applySampleFaults(env, raw, now);
                if (kept)
                    prof.observation.set(r, *kept);
                else
                    ++round.droppedSamples;
            }
        }
        round.aggregate = prof.observation;
        whole = recommender_.analyze(prof.observation.allExact());
        if (prof.observation.observedCount() <
            static_cast<size_t>(config_.minObservedForMatch)) {
            // Coverage never recovered: emit a guess-free round.
            round.abstained = true;
            round.confidence = whole.confidence;
            metrics.add(obs::MetricId::kDetectorGatedAbstentions);
            if (telemetry.enabled())
                telemetry.count(obs::SeriesId::kDetectorAbstentions,
                                obs::indexedLabel('r', round_index), now);
            metrics.add(obs::MetricId::kDetectorInconclusiveRounds);
            round.profilingSec = now - t;
            metrics.observe(obs::MetricId::kDetectorRoundSimSec,
                            round.profilingSec);
            BOLT_TRACE_SPAN(
                "detector.round", "detector",
                static_cast<int64_t>(env.server->id()), t, now,
                round_index,
                {{"guesses", "0"},
                 {"benchmarks", std::to_string(round.benchmarksRun)},
                 {"abstained", "1"}});
            return round;
        }
    }
    round.confidence = whole.confidence;

    // Disentangle the signal into co-residents: an additive
    // decomposition explains the aggregate uncore readings as a sum of
    // previously-seen applications, with core readings attributed to the
    // focus core's hyperthread sibling (§3.3: hyperthreads are never
    // shared between active instances, and uncore pressure composes
    // linearly).
    Decomposition decomp = recommender_.decompose(
        prof.observation.allExact(), prof.coreShared,
        static_cast<size_t>(std::max(1, config_.maxCoResidents)));

    if (decomp.score >= floor) {
        for (size_t p = 0; p < decomp.parts.size(); ++p) {
            const auto& part = decomp.parts[p];
            const auto& match = recommender_.training().entry(part.index);
            CoResidentGuess guess;
            guess.classLabel = match.classLabel();
            guess.similarity = decomp.score;
            // Reported profiles are de-attenuated back to true pressure
            // space through the assumed measurement channel.
            guess.profile = workloads::scaledPressure(match.fullLoadBase,
                                                      part.level);
            for (sim::Resource r : sim::kAllResources) {
                double vis = config_.assumedChannel.crossVisibility(r);
                if (vis > 0.05)
                    guess.profile[r] =
                        std::min(100.0, guess.profile[r] / vis);
            }
            // The similarity distribution for the strongest part comes
            // from the whole-signal analysis (the paper's "65% similar
            // to memcached, 18% to Spark, ..." output); further parts
            // carry their own class only.
            if (p == 0 && !whole.distribution.empty() &&
                whole.distribution.front().first == guess.classLabel) {
                guess.distribution = whole.distribution;
            } else {
                guess.distribution = {{guess.classLabel, 1.0}};
            }
            round.guesses.push_back(std::move(guess));
        }
        metrics.add(obs::MetricId::kDetectorDecomposedGuesses,
                    decomp.parts.size());
    } else if (whole.topScore() >= floor && !whole.ranking.empty()) {
        // Decomposition inconclusive: fall back to the best whole-signal
        // match (the paper emits its top similarity whenever any
        // correlation clears the 0.1 floor).
        const auto& match =
            recommender_.training().entry(whole.ranking.front().first);
        CoResidentGuess guess;
        guess.classLabel = match.classLabel();
        guess.similarity = whole.topScore();
        guess.profile = whole.reconstructed;
        for (sim::Resource r : sim::kAllResources) {
            double vis = config_.assumedChannel.crossVisibility(r);
            if (vis > 0.05)
                guess.profile[r] =
                    std::min(100.0, guess.profile[r] / vis);
        }
        guess.distribution = whole.distribution;
        round.guesses.push_back(std::move(guess));
        metrics.add(obs::MetricId::kDetectorFallbackGuesses);
    }
    if (round.guesses.empty())
        metrics.add(obs::MetricId::kDetectorInconclusiveRounds);

    round.profilingSec = now - t;
    metrics.observe(obs::MetricId::kDetectorRoundSimSec,
                    round.profilingSec);
    BOLT_TRACE_SPAN("detector.round", "detector",
                    static_cast<int64_t>(env.server->id()), t, now,
                    round_index,
                    {{"guesses", std::to_string(round.guesses.size())},
                     {"benchmarks", std::to_string(round.benchmarksRun)},
                     {"shutter", round.usedShutter ? "1" : "0"}});
    return round;
}

} // namespace core
} // namespace bolt
