#include "engine.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <set>

#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/digest.h"
#include "util/thread_pool.h"

namespace bolt {
namespace serve {

namespace {

/**
 * One decision-plane event. Ordering is (time, kind, id) ascending —
 * arrivals before lane wakes at equal times, lower ids first — so the
 * simulation consumes events in one globally deterministic order.
 */
struct Event
{
    double t = 0.0;
    uint8_t kind = 0; ///< 0 = arrival (id = request), 1 = wake (id = lane).
    uint64_t id = 0;

    bool operator>(const Event& o) const
    {
        if (t != o.t)
            return t > o.t;
        if (kind != o.kind)
            return kind > o.kind;
        return id > o.id;
    }
};

using EventHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

/** Fold one analyze result into a request's output digest. */
void
foldAnalyze(util::Fnv1a& dig, const core::SimilarityResult& r)
{
    dig.u64(r.ranking.size());
    for (const auto& [idx, score] : r.ranking) {
        dig.u64(idx);
        dig.f64(score);
    }
    for (const auto& [label, share] : r.distribution) {
        dig.str(label);
        dig.f64(share);
    }
    for (size_t c = 0; c < sim::kNumResources; ++c)
        dig.f64(r.reconstructed.at(c));
    dig.u64(r.conceptsKept);
    dig.f64(r.margin);
    dig.f64(r.topFittedLevel);
    dig.f64(r.confidence);
}

/** Fold one decompose result into a request's output digest. */
void
foldDecompose(util::Fnv1a& dig, const core::Decomposition& d)
{
    dig.u64(d.parts.size());
    for (const auto& part : d.parts) {
        dig.u64(part.index);
        dig.f64(part.level);
    }
    dig.f64(d.distance);
    dig.f64(d.score);
}

} // namespace

ServeEngine::ServeEngine(const core::HybridRecommender& recommender,
                         ServeConfig config)
    : recommender_(recommender), config_(config),
      loadgen_(recommender.training(), config.load)
{
}

uint64_t
ServeResult::digest() const
{
    util::Fnv1a dig;
    dig.u64(outcomes.size());
    for (const auto& o : outcomes) {
        dig.u8(static_cast<uint8_t>(o.outcome));
        dig.f64(o.arrivalMs);
        dig.f64(o.dequeueMs);
        dig.f64(o.completionMs);
        dig.u64(o.batchId);
        dig.u64(o.resultDigest);
    }
    dig.u64(stats.offered);
    dig.u64(stats.admitted);
    dig.u64(stats.rejectedQueueFull);
    dig.u64(stats.rejectedSloInfeasible);
    dig.u64(stats.shedDeadline);
    dig.u64(stats.completed);
    dig.u64(stats.sloMisses);
    dig.u64(stats.batches);
    dig.u64(stats.queueDepthPeak);
    dig.f64(stats.makespanMs);
    dig.f64(stats.achievedQps);
    dig.f64(stats.goodputQps);
    return dig.h;
}

ServeResult
ServeEngine::run() const
{
    const size_t workers = std::max<size_t>(1, config_.workers);
    const size_t max_batch = std::max<size_t>(1, config_.maxBatch);
    const size_t queue_cap = std::max<size_t>(1, config_.queueCapacity);
    const LoadGenConfig& load = loadgen_.config();

    ServeResult res;
    std::vector<Request> requests;
    requests.reserve(load.requests);
    res.outcomes.reserve(load.requests);
    std::vector<std::vector<uint64_t>> batches;

    // ---------------------------------------------------------------
    // Decision plane: a sequential discrete-event simulation on the
    // virtual timeline. Deterministic by construction — one event
    // order, counter-based draws only.
    // ---------------------------------------------------------------
    EventHeap events;
    std::deque<uint64_t> pendingQ;   ///< Admitted, not yet dequeued.
    std::set<size_t> idleLanes;      ///< Parked virtual service lanes.
    std::vector<bool> deferred(workers, false);
    std::vector<uint64_t> clientSeq(load.clients, 0);
    uint64_t issued = 0;
    double last_event_ms = 0.0;

    ServeStats& st = res.stats;

    auto issueRequest = [&](size_t client, double arrival_ms) {
        uint64_t id = issued++;
        requests.push_back(loadgen_.makeRequest(id, client, arrival_ms));
        res.outcomes.push_back(RequestOutcome{});
        events.push(Event{arrival_ms, 0, id});
    };

    // Closed loop: a request's terminal verdict at time t prompts its
    // client lane to think and issue the next request.
    auto onTerminal = [&](uint64_t id, double t_ms) {
        last_event_ms = std::max(last_event_ms, t_ms);
        if (!load.closedLoop || issued >= load.requests)
            return;
        size_t c = requests[id].client;
        issueRequest(c, t_ms + loadgen_.thinkDelayMs(c, ++clientSeq[c]));
    };

    // Predicted queue delay if one more request joins: pending batches
    // ahead of it, each costing one setup plus a full batch of
    // nominal-cost requests, spread over the lanes. Coarse on purpose —
    // admission control must be cheap and depend only on Sim state.
    auto estimatedWaitMs = [&]() {
        double batches_ahead = static_cast<double>(
            (pendingQ.size() + max_batch) / max_batch);
        double batch_ms = config_.batchSetupMs +
                          static_cast<double>(max_batch) * kServiceMedianMs;
        return batches_ahead * batch_ms / static_cast<double>(workers);
    };

    if (load.closedLoop) {
        for (size_t c = 0;
             c < load.clients && issued < load.requests; ++c)
            issueRequest(c, loadgen_.thinkDelayMs(c, clientSeq[c]));
    } else {
        issueRequest(0, loadgen_.interarrivalMs(0));
    }
    for (size_t w = 0; w < workers; ++w)
        idleLanes.insert(w);

    // Telemetry and the SLO monitor run on the decision plane only, so
    // the windowed series and the alert timeline are as deterministic
    // as the outcomes themselves. Everything below is inert unless the
    // recorder/monitor was explicitly enabled.
    auto& telemetry = obs::TimeSeriesRecorder::global();
    auto& monitor = obs::SloMonitor::global();

    while (!events.empty()) {
        Event ev = events.top();
        events.pop();
        monitor.advanceTo(ev.t / 1000.0);

        if (ev.kind == 0) {
            // --- Arrival: admission control.
            uint64_t id = ev.id;
            RequestOutcome& out = res.outcomes[id];
            out.arrivalMs = ev.t;
            ++st.offered;
            if (telemetry.enabled())
                telemetry.count(obs::SeriesId::kServeTenantRequests,
                                obs::indexedLabel('c', requests[id].client),
                                ev.t / 1000.0);
            // Open loop: the arrival process is external — chain the
            // next arrival regardless of this one's verdict.
            if (!load.closedLoop && issued < load.requests)
                issueRequest(0, ev.t + loadgen_.interarrivalMs(issued));

            if (pendingQ.size() >= queue_cap) {
                out.outcome = Outcome::RejectedQueueFull;
                ++st.rejectedQueueFull;
                if (telemetry.enabled())
                    telemetry.sample(obs::SeriesId::kServeLatencyMs,
                                     outcomeName(out.outcome),
                                     ev.t / 1000.0, 0.0);
                onTerminal(id, ev.t);
            } else if (config_.admitSloCheck &&
                       ev.t + estimatedWaitMs() >
                           requests[id].deadlineMs) {
                out.outcome = Outcome::RejectedSloInfeasible;
                ++st.rejectedSloInfeasible;
                if (telemetry.enabled())
                    telemetry.sample(obs::SeriesId::kServeLatencyMs,
                                     outcomeName(out.outcome),
                                     ev.t / 1000.0, 0.0);
                onTerminal(id, ev.t);
            } else {
                ++st.admitted;
                pendingQ.push_back(id);
                st.queueDepthPeak =
                    std::max(st.queueDepthPeak,
                             static_cast<uint64_t>(pendingQ.size()));
                telemetry.sample(obs::SeriesId::kServeQueueDepth,
                                 ev.t / 1000.0,
                                 static_cast<double>(pendingQ.size()));
                if (!idleLanes.empty()) {
                    size_t w = *idleLanes.begin();
                    idleLanes.erase(idleLanes.begin());
                    events.push(
                        Event{ev.t, 1, static_cast<uint64_t>(w)});
                }
            }
            continue;
        }

        // --- Lane wake: form a micro-batch.
        size_t w = static_cast<size_t>(ev.id);
        if (pendingQ.empty()) {
            deferred[w] = false;
            idleLanes.insert(w);
            continue;
        }
        if (config_.batchWaitMs > 0.0 && !deferred[w] &&
            pendingQ.size() < max_batch) {
            // Defer once to let the batch fill; commit either way at
            // the deferred wake.
            deferred[w] = true;
            ++st.batchDeferrals;
            events.push(Event{ev.t + config_.batchWaitMs, 1, ev.id});
            continue;
        }
        deferred[w] = false;

        std::vector<uint64_t> batch;
        while (!pendingQ.empty() && batch.size() < max_batch) {
            uint64_t id = pendingQ.front();
            pendingQ.pop_front();
            RequestOutcome& out = res.outcomes[id];
            out.dequeueMs = ev.t;
            st.queueDelayMs.add(out.queueDelayMs());
            if (ev.t >= requests[id].deadlineMs) {
                // Expired while queued: complete as an explicit
                // DeadlineExceeded without touching the recommender.
                out.outcome = Outcome::DeadlineExceeded;
                ++st.shedDeadline;
                if (telemetry.enabled())
                    telemetry.sample(obs::SeriesId::kServeLatencyMs,
                                     outcomeName(out.outcome),
                                     ev.t / 1000.0,
                                     ev.t - out.arrivalMs);
                onTerminal(id, ev.t);
                continue;
            }
            batch.push_back(id);
        }
        if (batch.empty()) {
            idleLanes.insert(w);
            continue;
        }

        double service_ms = config_.batchSetupMs;
        for (uint64_t id : batch)
            service_ms += requests[id].costMs;
        double completion_ms = ev.t + service_ms;
        uint32_t batch_id = static_cast<uint32_t>(batches.size());
        for (uint64_t id : batch) {
            RequestOutcome& out = res.outcomes[id];
            out.outcome = Outcome::Completed;
            out.completionMs = completion_ms;
            out.batchId = batch_id;
            ++st.completed;
            st.latencyMs.add(out.latencyMs());
            if (telemetry.enabled())
                telemetry.sample(obs::SeriesId::kServeLatencyMs,
                                 outcomeName(Outcome::Completed),
                                 completion_ms / 1000.0,
                                 out.latencyMs());
            if (completion_ms > requests[id].deadlineMs)
                ++st.sloMisses;
            onTerminal(id, completion_ms);
        }
        st.batchSizes.add(static_cast<double>(batch.size()));
        telemetry.sample(obs::SeriesId::kServeBatchSize, ev.t / 1000.0,
                         static_cast<double>(batch.size()));
        // Execution-plane batch span: formed at ev.t, executed through
        // its deterministic completion — lets `bolt_cli report` and
        // Chrome traces show batching behavior without touching the
        // wall-clock plane.
        BOLT_TRACE_SPAN("serve.batch", "serve", static_cast<int64_t>(w),
                        ev.t / 1000.0, completion_ms / 1000.0, -1,
                        {{"size", std::to_string(batch.size())},
                         {"batch", std::to_string(batch_id)}});
        ++st.batches;
        batches.push_back(std::move(batch));
        events.push(Event{completion_ms, 1, ev.id});
    }

    st.makespanMs = last_event_ms;
    // Close out the trailing telemetry windows for the SLO monitor.
    monitor.advanceTo(last_event_ms / 1000.0 +
                      obs::TimeSeriesRecorder::global().config().windowSec);
    if (st.makespanMs > 0.0) {
        st.achievedQps = static_cast<double>(st.completed) /
                         (st.makespanMs / 1000.0);
        st.goodputQps =
            static_cast<double>(st.completed - st.sloMisses) /
            (st.makespanMs / 1000.0);
    }

    // ---------------------------------------------------------------
    // Execution plane: run every batch's queries for real, one batch
    // per parallelFor index; the calling thread runs batches too. Each
    // request's recommender output lands in its own outcome slot, so
    // results are bit-identical at any thread count.
    // ---------------------------------------------------------------
    auto& metrics = obs::MetricsRegistry::global();
    util::parallelFor(
        0, batches.size(),
        [&](size_t b) {
            auto t0 = std::chrono::steady_clock::now();
            for (uint64_t id : batches[b]) {
                const Request& req = requests[id];
                util::Fnv1a dig;
                if (req.isDecompose)
                    foldDecompose(dig, recommender_.decompose(
                                           req.query, req.coreShared));
                else
                    foldAnalyze(dig, recommender_.analyze(req.query));
                res.outcomes[id].resultDigest = dig.h;
            }
            metrics.observe(
                obs::MetricId::kServeExecWallUs,
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        },
        1);

    // ---------------------------------------------------------------
    // Sim-class metrics, recorded once from the deterministic totals.
    // ---------------------------------------------------------------
    metrics.add(obs::MetricId::kServeRequestsOffered, st.offered);
    metrics.add(obs::MetricId::kServeAdmitted, st.admitted);
    metrics.add(obs::MetricId::kServeRejectedQueueFull,
                st.rejectedQueueFull);
    metrics.add(obs::MetricId::kServeRejectedSloInfeasible,
                st.rejectedSloInfeasible);
    metrics.add(obs::MetricId::kServeShedDeadline, st.shedDeadline);
    metrics.add(obs::MetricId::kServeCompleted, st.completed);
    metrics.add(obs::MetricId::kServeSloMisses, st.sloMisses);
    metrics.add(obs::MetricId::kServeBatchesFormed, st.batches);
    metrics.add(obs::MetricId::kServeBatchDeferrals, st.batchDeferrals);
    metrics.gaugeMax(obs::MetricId::kServeQueueDepthPeak,
                     static_cast<double>(st.queueDepthPeak));
    if (metrics.enabled()) {
        for (const auto& o : res.outcomes) {
            if (o.dequeueMs >= 0.0)
                metrics.observe(obs::MetricId::kServeQueueDelaySimMs,
                                o.queueDelayMs());
            if (o.outcome == Outcome::Completed)
                metrics.observe(obs::MetricId::kServeLatencySimMs,
                                o.latencyMs());
        }
        for (const auto& b : batches)
            metrics.observe(obs::MetricId::kServeBatchSize,
                            static_cast<double>(b.size()));
    }
    return res;
}

const char*
outcomeName(Outcome o)
{
    switch (o) {
    case Outcome::Completed:
        return "completed";
    case Outcome::RejectedQueueFull:
        return "rejected_queue_full";
    case Outcome::RejectedSloInfeasible:
        return "rejected_slo_infeasible";
    case Outcome::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "unknown";
}

} // namespace serve
} // namespace bolt
