/** Tests for the deterministic query-serving layer (src/serve/): load
 *  generator and the two-plane engine (admission control,
 *  micro-batching, SLO shedding, determinism). */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/recommender.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

// ------------------------------------------------------------------
// LoadGen
// ------------------------------------------------------------------

class LoadGenTest : public ::testing::Test
{
  protected:
    static core::TrainingSet
    smallTraining()
    {
        util::Rng rng(11);
        auto specs = workloads::trainingSet(rng, 30);
        return core::TrainingSet::fromSpecs(specs, rng);
    }
};

TEST_F(LoadGenTest, RequestsArePureFunctionsOfTheirId)
{
    auto training = smallTraining();
    serve::LoadGenConfig cfg;
    cfg.seed = 5;
    cfg.decomposeFraction = 0.5;
    serve::LoadGen gen(training, cfg);

    // Materializing the same id twice — or out of order — yields the
    // identical request (the engine relies on this to be lazy).
    for (uint64_t id : {0ull, 17ull, 3ull, 17ull}) {
        serve::Request a = gen.makeRequest(id, 0, 10.0);
        serve::Request b = gen.makeRequest(id, 0, 10.0);
        EXPECT_EQ(a.costMs, b.costMs);
        EXPECT_GT(a.costMs, 0.0);
        EXPECT_DOUBLE_EQ(a.deadlineMs, 10.0 + cfg.sloMs);
        EXPECT_EQ(a.isDecompose, b.isDecompose);
        EXPECT_EQ(a.query.observedCount(), b.query.observedCount());
        for (sim::Resource r : sim::kAllResources) {
            ASSERT_EQ(a.query.has(r), b.query.has(r));
            if (a.query.has(r)) {
                EXPECT_EQ(a.query.get(r), b.query.get(r));
                EXPECT_EQ(a.query.bound(r), b.query.bound(r));
            }
        }
    }
}

TEST_F(LoadGenTest, DecomposeFractionZeroAndOneAreRespected)
{
    auto training = smallTraining();
    serve::LoadGenConfig cfg;
    cfg.requests = 100;

    cfg.decomposeFraction = 0.0;
    serve::LoadGen none(training, cfg);
    cfg.decomposeFraction = 1.0;
    serve::LoadGen all(training, cfg);
    for (uint64_t id = 0; id < 100; ++id) {
        EXPECT_FALSE(none.makeRequest(id, 0, 0.0).isDecompose);
        EXPECT_TRUE(all.makeRequest(id, 0, 0.0).isDecompose);
    }
}

// ------------------------------------------------------------------
// ServeEngine
// ------------------------------------------------------------------

/** Shared recommender: building one takes the bulk of the test time. */
class ServeEngineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        util::Rng rng(11);
        auto specs = workloads::trainingSet(rng, 30);
        training_ = new core::TrainingSet(
            core::TrainingSet::fromSpecs(specs, rng));
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

    static serve::ServeConfig
    baseConfig()
    {
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.queueCapacity = 64;
        cfg.maxBatch = 4;
        cfg.load.requests = 300;
        cfg.load.offeredQps = 900.0;
        cfg.load.decomposeFraction = 0.1;
        cfg.load.seed = 3;
        return cfg;
    }

    static void
    expectConservation(const serve::ServeResult& r)
    {
        const serve::ServeStats& st = r.stats;
        EXPECT_EQ(st.offered, r.outcomes.size());
        EXPECT_EQ(st.offered, st.completed + st.shedDeadline +
                                  st.rejectedQueueFull +
                                  st.rejectedSloInfeasible);
        EXPECT_EQ(st.admitted,
                  st.offered - st.rejectedQueueFull -
                      st.rejectedSloInfeasible);

        uint64_t completed = 0, shed = 0, rejected = 0;
        for (const auto& o : r.outcomes) {
            switch (o.outcome) {
            case serve::Outcome::Completed:
                ++completed;
                // Executed requests carry a real result and a batch.
                EXPECT_NE(o.resultDigest, 0u);
                EXPECT_NE(o.batchId, serve::kNoBatch);
                EXPECT_GE(o.completionMs, o.dequeueMs);
                EXPECT_GE(o.dequeueMs, o.arrivalMs);
                break;
            case serve::Outcome::DeadlineExceeded:
                ++shed;
                // Shed without execution: dequeued, never completed.
                EXPECT_EQ(o.resultDigest, 0u);
                EXPECT_EQ(o.batchId, serve::kNoBatch);
                EXPECT_GE(o.dequeueMs, o.arrivalMs);
                EXPECT_LT(o.completionMs, 0.0);
                break;
            default:
                ++rejected;
                // Rejected at admission: never dequeued.
                EXPECT_LT(o.dequeueMs, 0.0);
                EXPECT_EQ(o.batchId, serve::kNoBatch);
                break;
            }
        }
        EXPECT_EQ(completed, st.completed);
        EXPECT_EQ(shed, st.shedDeadline);
        EXPECT_EQ(rejected,
                  st.rejectedQueueFull + st.rejectedSloInfeasible);
    }

    static core::TrainingSet* training_;
    static core::HybridRecommender* recommender_;
};

core::TrainingSet* ServeEngineTest::training_ = nullptr;
core::HybridRecommender* ServeEngineTest::recommender_ = nullptr;

TEST_F(ServeEngineTest, OpenLoopConservesEveryRequest)
{
    auto res = serve::ServeEngine(*recommender_, baseConfig()).run();
    EXPECT_EQ(res.stats.offered, 300u);
    EXPECT_GT(res.stats.completed, 0u);
    expectConservation(res);
}

TEST_F(ServeEngineTest, OpenLoopArrivalsAreMonotoneInId)
{
    // Request id's arrival is the prefix sum of the interarrival stream
    // through id, whatever verdict earlier requests got.
    serve::ServeConfig cfg = baseConfig();
    cfg.load.requests = 200;
    cfg.load.offeredQps = 500.0;
    auto res = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_EQ(res.stats.offered, cfg.load.requests);
    ASSERT_EQ(res.outcomes.size(), cfg.load.requests);
    serve::LoadGen gen(*training_, cfg.load);
    double t = 0.0;
    for (uint64_t id = 0; id < res.outcomes.size(); ++id) {
        t += gen.interarrivalMs(id);
        EXPECT_EQ(res.outcomes[id].arrivalMs, t) << id;
        if (id > 0) {
            EXPECT_GE(res.outcomes[id].arrivalMs,
                      res.outcomes[id - 1].arrivalMs)
                << id;
        }
    }
}

TEST_F(ServeEngineTest, DigestIsIdenticalAtAnyThreadCount)
{
    std::vector<uint64_t> digests;
    std::vector<serve::ServeResult> results;
    for (unsigned threads : {1u, 2u, 8u}) {
        util::ThreadPool::setGlobalThreads(threads);
        auto res = serve::ServeEngine(*recommender_, baseConfig()).run();
        digests.push_back(res.digest());
        results.push_back(std::move(res));
    }
    util::ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
    // Digest equality must reflect field equality, including the
    // per-request recommender output digests filled by the execution
    // plane.
    ASSERT_EQ(results[0].outcomes.size(), results[2].outcomes.size());
    for (size_t i = 0; i < results[0].outcomes.size(); ++i) {
        EXPECT_EQ(results[0].outcomes[i].resultDigest,
                  results[2].outcomes[i].resultDigest)
            << "request " << i;
        EXPECT_EQ(results[0].outcomes[i].batchId,
                  results[2].outcomes[i].batchId);
    }
}

TEST_F(ServeEngineTest, BatchesNeverExceedMaxBatchAndAdaptToLoad)
{
    serve::ServeConfig cfg = baseConfig();
    cfg.maxBatch = 4;
    cfg.load.offeredQps = 5000.0; // saturating: batches should fill
    auto res = serve::ServeEngine(*recommender_, cfg).run();

    const auto& sizes = res.stats.batchSizes.samples();
    ASSERT_FALSE(sizes.empty());
    EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()), 4.0);
    EXPECT_GT(res.stats.batchSizes.mean(), 1.5); // filled under load

    cfg.load.offeredQps = 100.0; // light: batches stay small
    auto light = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_LT(light.stats.batchSizes.mean(),
              res.stats.batchSizes.mean());
}

TEST_F(ServeEngineTest, TinyQueueProducesExplicitQueueFullRejections)
{
    serve::ServeConfig cfg = baseConfig();
    cfg.queueCapacity = 1;
    cfg.maxBatch = 1;
    cfg.admitSloCheck = false; // isolate the queue-full path
    cfg.load.offeredQps = 4000.0;
    auto res = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_GT(res.stats.rejectedQueueFull, 0u);
    expectConservation(res);
}

TEST_F(ServeEngineTest, TinySloShedsOrRejectsInsteadOfServingLate)
{
    serve::ServeConfig cfg = baseConfig();
    cfg.load.sloMs = 3.0; // below even one batch's service time
    cfg.load.offeredQps = 3000.0;
    cfg.admitSloCheck = false; // no admission veto: deadlines expire
    auto res = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_GT(res.stats.shedDeadline, 0u);
    expectConservation(res);

    // With admission control on, the same load is refused up front:
    // infeasible requests learn at arrival, not after their deadline.
    cfg.admitSloCheck = true;
    auto admitted = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_GT(admitted.stats.rejectedSloInfeasible, 0u);
    EXPECT_LE(admitted.stats.shedDeadline, res.stats.shedDeadline);
    expectConservation(admitted);
}

TEST_F(ServeEngineTest, ClosedLoopIssuesExactlyTheRequestCap)
{
    serve::ServeConfig cfg = baseConfig();
    cfg.load.closedLoop = true;
    cfg.load.clients = 8;
    cfg.load.thinkMs = 1.0;
    cfg.load.requests = 120;
    auto res = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_EQ(res.stats.offered, 120u);
    expectConservation(res);

    // Every client lane participates.
    std::set<size_t> lanes;
    serve::LoadGen gen(*training_, cfg.load);
    for (uint64_t id = 0; id < res.outcomes.size(); ++id)
        lanes.insert(gen.makeRequest(id, id % 8, 0.0).client);
    EXPECT_EQ(lanes.size(), 8u);
}

TEST_F(ServeEngineTest, BatchWaitDefersOncePerBatchAtMost)
{
    serve::ServeConfig cfg = baseConfig();
    cfg.batchWaitMs = 1.0;
    cfg.load.offeredQps = 300.0; // light load: deferrals will happen
    auto res = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_GT(res.stats.batchDeferrals, 0u);
    // A deferral is one-shot: there can never be more deferrals than
    // batches plus empty wakes; batches still form and complete.
    expectConservation(res);
    EXPECT_GT(res.stats.completed, 0u);
}

TEST_F(ServeEngineTest, ResultDigestCoversVerdictsNotJustCounts)
{
    serve::ServeConfig cfg = baseConfig();
    auto a = serve::ServeEngine(*recommender_, cfg).run();
    cfg.load.seed = 4; // different traffic => different digest
    auto b = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_NE(a.digest(), b.digest());

    // Same config, fresh run: bit-identical.
    cfg.load.seed = 3;
    auto c = serve::ServeEngine(*recommender_, cfg).run();
    EXPECT_EQ(a.digest(), c.digest());
}

} // namespace
