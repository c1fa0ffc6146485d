#include "loadgen.h"

#include <algorithm>

#include "util/rng.h"
#include "util/seeds.h"
#include "workloads/app.h"

namespace bolt {
namespace serve {

namespace {

// Stream-phase keys of the serving layer live in util/seeds.h with
// every other subsystem's, which keeps them provably disjoint (serve
// draws never correlate with detection or fault draws under a shared
// root seed).
using util::seeds::kServeArrival;
using util::seeds::kServeCost;
using util::seeds::kServeQuery;
using util::seeds::kServeThink;

/** Observed-resource counts cycled by analyze queries (paper: 2-5). */
constexpr size_t kObservedChoices[] = {2, 3, 5, 6, 10};

} // namespace

LoadGen::LoadGen(const core::TrainingSet& training, LoadGenConfig config)
    : training_(training), config_(config)
{
    if (config_.requests == 0)
        config_.requests = 1;
    if (config_.clients == 0)
        config_.clients = 1;
}

double
LoadGen::interarrivalMs(uint64_t index) const
{
    util::Rng rng = util::Rng::stream(config_.seed,
                                      {kServeArrival, index});
    double mean_ms = 1000.0 / std::max(config_.offeredQps, 1e-9);
    return rng.exponential(mean_ms);
}

double
LoadGen::thinkDelayMs(size_t client, uint64_t seq) const
{
    util::Rng rng = util::Rng::stream(
        config_.seed, {kServeThink, static_cast<uint64_t>(client), seq});
    return rng.exponential(std::max(config_.thinkMs, 1e-9));
}

Request
LoadGen::makeRequest(uint64_t id, size_t client, double arrivalMs) const
{
    Request req;
    req.id = id;
    req.client = client;
    req.arrivalMs = arrivalMs;
    req.deadlineMs = arrivalMs + config_.sloMs;

    util::Rng q = util::Rng::stream(config_.seed, {kServeQuery, id});
    req.isDecompose = q.bernoulli(config_.decomposeFraction);
    size_t m = training_.size();

    if (!req.isDecompose) {
        // Single-tenant probe: one training entry at a random load
        // level, 2-10 resources observed with measurement noise.
        const auto& entry = training_.entry(q.index(m));
        double level = 0.3 + 0.6 * q.uniform();
        sim::ResourceVector p =
            workloads::scaledPressure(entry.fullLoadBase, level);
        size_t observed = kObservedChoices[q.index(5)];
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            req.query.set(r, q.clampedGaussian(p[r], 1.0, 0.0, 100.0));
        }
    } else {
        // Aggregate signal: two co-resident entries blended; uncore
        // entries sum, core entries belong to the focus sibling alone.
        const auto& a = training_.entry(q.index(m));
        const auto& b = training_.entry(q.index(m));
        double la = 0.4 + 0.5 * q.uniform();
        double lb = 0.4 + 0.5 * q.uniform();
        sim::ResourceVector pa =
            workloads::scaledPressure(a.fullLoadBase, la);
        sim::ResourceVector pb =
            workloads::scaledPressure(b.fullLoadBase, lb);
        req.coreShared = q.bernoulli(0.5);
        for (sim::Resource r : sim::kAllResources) {
            double v = sim::isCoreResource(r)
                           ? pa[r]
                           : std::min(pa[r] + pb[r], 100.0);
            req.query.set(r, q.clampedGaussian(v, 1.0, 0.0, 100.0));
        }
    }

    util::Rng c = util::Rng::stream(config_.seed, {kServeCost, id});
    req.costMs = c.lognormal(kServiceMedianMs, kServiceSigma);
    if (req.isDecompose)
        req.costMs *= kDecomposeCostFactor;
    return req;
}

} // namespace serve
} // namespace bolt
