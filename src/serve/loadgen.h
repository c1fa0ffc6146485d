#ifndef BOLT_SERVE_LOADGEN_H
#define BOLT_SERVE_LOADGEN_H

#include <cstdint>
#include <vector>

#include "core/training.h"
#include "serve/request.h"

namespace bolt {
namespace serve {

/// Lognormal sim service-cost model: median and shape per query.
inline constexpr double kServiceMedianMs = 0.8;
inline constexpr double kServiceSigma = 0.35;
/// Cost multiplier for decompose queries (pricier search).
inline constexpr double kDecomposeCostFactor = 3.0;

/**
 * Load-generator configuration: the traffic the serving layer is asked
 * to survive. Each request's sim service cost is drawn from the
 * constant cost model above.
 */
struct LoadGenConfig
{
    /** Total requests issued (open loop) or the issue cap (closed). */
    size_t requests = 2000;
    /** Open-loop Poisson arrival rate, requests per sim second. */
    double offeredQps = 1000.0;

    /**
     * Closed loop: `clients` lanes each issue one request, wait for
     * its terminal outcome, think (exponential `thinkMs` mean), then
     * issue the next — arrival rate self-limits to service capacity.
     */
    bool closedLoop = false;
    size_t clients = 16;
    double thinkMs = 4.0;

    /** Per-request deadline budget (the SLO), sim milliseconds. */
    double sloMs = 50.0;

    /** Fraction of requests that are aggregate decompose queries. */
    double decomposeFraction = 0.0;

    uint64_t seed = 1;
};

/**
 * Deterministic open-/closed-loop load generator.
 *
 * Every random choice — interarrival gap, think delay, query content,
 * service cost — is drawn from a counter-based `Rng::stream` keyed by
 * (seed, purpose, request id or client lane), never from a shared
 * sequential stream. A request is therefore a pure function of its id:
 * the engine can materialize requests lazily, in any order, on any
 * thread, and a full load test is bit-identical at any thread count.
 *
 * Queries are built against a training set the same way the experiment
 * does: a training entry scaled to a random input-load level with
 * Gaussian measurement noise, observing 2-10 of the ten resources
 * (analyze), or a two-entry aggregate blend over all ten (decompose).
 *
 * Thread-safety: const members may be called concurrently; the
 * referenced TrainingSet must outlive the generator.
 */
class LoadGen
{
  public:
    LoadGen(const core::TrainingSet& training, LoadGenConfig config);

    const LoadGenConfig& config() const { return config_; }

    /**
     * Materialize request `id` arriving at `arrivalMs` on client lane
     * `client` (0 for open loop). Query content and service cost
     * depend only on (seed, id).
     */
    Request makeRequest(uint64_t id, size_t client,
                        double arrivalMs) const;

    /** Exponential gap (ms) between open-loop arrivals i-1 and i. */
    double interarrivalMs(uint64_t index) const;

    /** Closed loop: think delay before client `c`'s issue number `seq`. */
    double thinkDelayMs(size_t client, uint64_t seq) const;

  private:
    const core::TrainingSet& training_;
    LoadGenConfig config_;
};

} // namespace serve
} // namespace bolt

#endif // BOLT_SERVE_LOADGEN_H
