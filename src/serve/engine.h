#ifndef BOLT_SERVE_ENGINE_H
#define BOLT_SERVE_ENGINE_H

#include <cstdint>
#include <vector>

#include "core/recommender.h"
#include "serve/loadgen.h"
#include "serve/request.h"
#include "util/stats.h"

namespace bolt {
namespace serve {

/**
 * Serving-layer configuration: the knobs of the queue, the
 * micro-batcher, and admission control. Load and SLO live in `load`.
 */
struct ServeConfig
{
    /**
     * Virtual service lanes of the sim timeline (how many batches can
     * be in service concurrently). Independent of `--threads`, which
     * only sizes the wall-clock execution pool.
     */
    size_t workers = 4;
    /** Bounded request-queue capacity; arrivals beyond it are rejected. */
    size_t queueCapacity = 128;
    /** Micro-batch size cap. 1 disables batching. */
    size_t maxBatch = 8;
    /** Fixed per-batch service overhead (dispatch + cache warm), ms. */
    double batchSetupMs = 2.0;
    /**
     * Optional batch-fill wait: a lane that finds fewer than maxBatch
     * requests pending may defer once by this long to let the batch
     * fill. 0 (default) = adaptive greedy batching — take whatever is
     * pending, never wait; batch size then tracks queue depth (small
     * under light load for latency, full at saturation for throughput).
     */
    double batchWaitMs = 0.0;
    /**
     * SLO-aware admission control: reject a request at arrival when the
     * predicted queue delay already exceeds its deadline budget, so the
     * client learns immediately instead of receiving a shed verdict
     * after the deadline passed.
     */
    bool admitSloCheck = true;

    LoadGenConfig load;
};

/** Aggregate Sim-class statistics of one serving run. */
struct ServeStats
{
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedSloInfeasible = 0;
    uint64_t shedDeadline = 0;
    uint64_t completed = 0;
    /** Completed but past the deadline (served late, counted honestly). */
    uint64_t sloMisses = 0;
    uint64_t batches = 0;
    uint64_t batchDeferrals = 0;
    uint64_t queueDepthPeak = 0;

    /** First arrival to last completion (or last terminal event), ms. */
    double makespanMs = 0.0;
    /** Completed requests per sim second. */
    double achievedQps = 0.0;
    /** Completed-within-deadline requests per sim second. */
    double goodputQps = 0.0;

    util::Summary latencyMs;    ///< Completion - arrival, completed only.
    util::Summary queueDelayMs; ///< Dequeue - arrival, dequeued requests.
    util::Summary batchSizes;   ///< Executable requests per batch.
};

/**
 * Everything one serving run produced: the per-request Sim-class
 * outcome trail (indexed by request id) and the aggregates derived
 * from it.
 */
struct ServeResult
{
    std::vector<RequestOutcome> outcomes;
    ServeStats stats;

    /**
     * FNV-1a digest over every Sim-class field of every outcome
     * (ordering, timing, verdicts, per-request recommender output
     * digests) plus the aggregate counts. Bit-identical for a given
     * (config, seed) at any thread count — the value the serving
     * golden gates on.
     */
    uint64_t digest() const;
};

/**
 * The deterministic query-serving engine: bounded queue, adaptive
 * micro-batching, SLO-aware admission and shedding, layered on the
 * cache-backed `HybridRecommender` and the global `ThreadPool`.
 *
 * The engine runs in two planes:
 *
 *  - **Decision plane (sim time, deterministic).** A discrete-event
 *    simulation advances arrivals, admission verdicts, batch
 *    formation, deadline shedding and completions on the virtual
 *    timeline. Ties are broken (time, event kind, id) and every random
 *    draw is a counter-based stream keyed by request id, so the entire
 *    schedule — which requests were admitted, how batches formed, what
 *    was shed — is a pure function of (config, seed).
 *  - **Execution plane (wall time, parallel).** The batches the
 *    decision plane formed run as one `util::parallelFor` over batch
 *    indices (the calling thread runs batches too), each batch running
 *    its queries against the shared recommender and folding results
 *    into its requests' private outcome slots. Execution order
 *    is unspecified; outputs are slot-addressed, so results stay
 *    bit-identical at any thread count while wall-clock metrics
 *    (Wall-class) reflect real parallel throughput.
 *
 * Thread-safety: run() may be called from any thread but not
 * concurrently on the same engine. The referenced recommender must
 * outlive the engine.
 */
class ServeEngine
{
  public:
    ServeEngine(const core::HybridRecommender& recommender,
                ServeConfig config);

    const ServeConfig& config() const { return config_; }

    /** Run the configured load to completion; record serve.* metrics. */
    ServeResult run() const;

  private:
    const core::HybridRecommender& recommender_;
    ServeConfig config_;
    LoadGen loadgen_;
};

} // namespace serve
} // namespace bolt

#endif // BOLT_SERVE_ENGINE_H
