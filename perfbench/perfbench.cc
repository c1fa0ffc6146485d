/**
 * @file
 * The libbolt benchmark binary. Runs one workload (`detect`, `serve` or
 * `fleet`) against the library's public API, times every call into a
 * layer from outside, verifies every unit of work it times, and prints
 * one JSON object on stdout:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"diag":{..}}
 *
 * `metrics` holds the end-to-end metrics (untraced run) or the
 * per-layer metrics (`--trace 1`); `diag` holds the raw wall figures
 * behind them and the traced run's checks. perfbench/run.py builds
 * this binary, runs it and reduces the object to the benchmark
 * contract; README.md in this directory documents every metric.
 *
 *   perfbench --workload detect --seed 1 --seconds 20 --trace 0
 *             [--out DIR] [--tamper]
 *
 * `--tamper` corrupts the first repeated unit after it returns (a
 * flipped detection outcome, a broken serve conservation law, a failed
 * fleet audit) so the tests can check that verification counts it as a
 * failed unit.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/recommender.h"
#include "core/training.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "sim/shard.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Inclusive linear-interpolation percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Spans: wall-time intervals around every public call the benchmark
// makes, kept in memory and written out when the run ends. Only the
// main thread records, so no locking is needed.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    uint64_t trace = 0;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root.
    double startUs = 0.0;
    double endUs = 0.0;
};

class SpanLog
{
  public:
    void setEnabled(bool on) { on_ = on; }

    /** Run f() inside a span named `name` of trace `trace`; returns f(). */
    template <class F>
    auto call(const char* name, uint64_t trace, F&& f)
    {
        if (!on_)
            return f();
        Span s;
        s.name = name;
        s.trace = trace;
        s.id = next_++;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.startUs = nowUs();
        stack_.push_back(s.id);
        struct Close
        {
            SpanLog& log;
            Span& span;
            ~Close()
            {
                span.endUs = log.nowUs();
                log.stack_.pop_back();
                log.spans_.push_back(span);
            }
        };
        Close close{*this, s};
        return f();
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    bool on_ = false;
    Clock::time_point epoch_ = Clock::now();
    uint64_t next_ = 1;
    std::vector<uint64_t> stack_;
    std::vector<Span> spans_;
};

SpanLog g_spans;

// ---------------------------------------------------------------------
// Drift reference: a fixed scalar floating-point kernel (48x48 matrix
// products) run on the workload's threads before and after each timed
// unit. The unit's wall time is rescaled by the square root of
// kRefNominalSec / (mean of the two reference times), which cancels a
// shared host that runs the vCPUs slower for minutes at a time. The
// square root is the measured sensitivity: across measurement periods
// the units slowed with about the 0.4-0.6th power of the kernel's
// slowdown, so a full rescale over-corrects (README.md has the study).
// detect and serve report rescaled rates, fleet its raw rate. The
// kernel is benchmark code, so library changes never move it.
// ---------------------------------------------------------------------

constexpr size_t kRefDim = 48;
constexpr size_t kRefProductsPerTask = 48;
/**
 * Reference time the rescaled figures are expressed against: about
 * what the kernel takes on a 4-vCPU Xeon VM, so rescaled times read
 * close to real ones there.
 */
constexpr double kRefNominalSec = 0.007;

class ReferenceKernel
{
  public:
    ReferenceKernel(uint64_t seed, size_t tasks)
        : a_(kRefDim * kRefDim), b_(kRefDim * kRefDim), out_(tasks)
    {
        util::Rng rng(seed);
        for (double& x : a_)
            x = rng.uniform(-1.0, 1.0);
        for (double& x : b_)
            x = rng.uniform(-1.0, 1.0);
        for (auto& o : out_)
            o.assign(kRefDim * kRefDim, 0.0);
    }

    /**
     * Run the kernel (best of `reps` passes, to drop a pass that an
     * interrupt landed in) and return its wall seconds.
     */
    double run(int reps = 3)
    {
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps; ++r) {
            auto t0 = Clock::now();
            util::parallelFor(
                0, out_.size(), [this](size_t t) { product(out_[t]); }, 1);
            best = std::min(best, secondsSince(t0));
        }
        return best;
    }

  private:
    void product(std::vector<double>& c) const
    {
        for (size_t rep = 0; rep < kRefProductsPerTask; ++rep) {
            for (size_t i = 0; i < kRefDim; ++i) {
                double* ci = &c[i * kRefDim];
                for (size_t j = 0; j < kRefDim; ++j)
                    ci[j] = rep ? ci[j] * 0.5 : 0.0;
                for (size_t k = 0; k < kRefDim; ++k) {
                    double aik = a_[i * kRefDim + k];
                    const double* bk = &b_[k * kRefDim];
                    for (size_t j = 0; j < kRefDim; ++j)
                        ci[j] += aik * bk[j];
                }
            }
        }
    }

    std::vector<double> a_, b_;
    std::vector<std::vector<double>> out_;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric>& ms)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        if (i)
            out += ",";
        out += jsonString(ms[i].name) + ":{\"value\":" +
               jsonNumber(ms[i].value) + ",\"unit\":" +
               jsonString(ms[i].unit) + "}";
    }
    return out + "}";
}

/**
 * Peak RSS of this process image. VmHWM, unlike getrusage()'s maxrss,
 * does not inherit the high-water mark of the process that exec'd us.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

// ---------------------------------------------------------------------
// Unit bookkeeping shared by the workloads
// ---------------------------------------------------------------------

/** One timed unit: which config it ran and how long it took. */
struct UnitTiming
{
    size_t config = 0;
    double wallSec = 0.0; ///< Raw wall time of the unit.
    double refSec = 0.0;  ///< Mean reference time just before and after.
    bool ok = false;

    double normSec() const
    {
        return wallSec * std::sqrt(kRefNominalSec / refSec);
    }
};

/**
 * Verification state: the digest each config produced the first time
 * it ran. A later unit of the same config must reproduce it.
 */
class DigestBook
{
  public:
    /** True when `digest` is the first or matches the first for `config`. */
    bool check(size_t config, uint64_t digest)
    {
        auto [it, fresh] = first_.emplace(config, digest);
        return fresh || it->second == digest;
    }

  private:
    std::map<size_t, uint64_t> first_;
};

/**
 * Median rescaled (or raw) time per config, summed over configs:
 * the time one pass over the whole config cycle takes. Every config
 * runs at least once, so the sum covers the same work in every run.
 */
double
cycleSeconds(const std::vector<UnitTiming>& units, size_t configs,
             bool rescaled)
{
    double total = 0.0;
    for (size_t c = 0; c < configs; ++c) {
        std::vector<double> t;
        for (const auto& u : units)
            if (u.config == c && u.ok)
                t.push_back(rescaled ? u.normSec() : u.wallSec);
        total += median(t);
    }
    return total;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tamper = false;
    std::string outDir = ".";
};

/** A workload's timed loop result. */
struct RunTotals
{
    std::vector<UnitTiming> units;
    size_t failed = 0;
    std::string firstFailure;
};

/**
 * Repeat units in cycle order (starting at `start`) until `seconds`
 * have elapsed and at least `min_units` units have run. `unit(c, i)`
 * runs config c as unit number i and returns whether it verified;
 * `after_unit`, if set, runs after each unit, outside its timing.
 */
using UnitFn = std::function<bool(size_t, size_t, std::string*)>;

RunTotals
timedLoop(size_t configs, size_t start, double seconds, size_t min_units,
          ReferenceKernel& ref, const UnitFn& unit,
          const std::function<void()>& after_unit = {})
{
    RunTotals out;
    auto t0 = Clock::now();
    double before = ref.run();
    for (size_t i = 0;; ++i) {
        UnitTiming u;
        u.config = (start + i) % configs;
        std::string why;
        auto u0 = Clock::now();
        try {
            u.ok = g_spans.call("unit", i + 1,
                                [&] { return unit(u.config, i, &why); });
        } catch (const std::exception& e) {
            u.ok = false;
            why = std::string("exception: ") + e.what();
        }
        u.wallSec = secondsSince(u0);
        if (after_unit)
            after_unit();
        double after = ref.run();
        u.refSec = 0.5 * (before + after);
        before = after;
        if (!u.ok) {
            ++out.failed;
            if (out.firstFailure.empty())
                out.firstFailure = "unit " + std::to_string(i) + ": " + why;
        }
        out.units.push_back(u);
        if (i + 1 >= min_units && secondsSince(t0) >= seconds)
            break;
    }
    return out;
}

/** Fold a later pass's units and failures into `into`. */
void
absorb(RunTotals* into, const RunTotals& more)
{
    into->failed += more.failed;
    into->units.insert(into->units.end(), more.units.begin(),
                       more.units.end());
    if (into->firstFailure.empty())
        into->firstFailure = more.firstFailure;
}

// ---------------------------------------------------------------------
// Setup shared by detect and serve: the training set and recommender,
// derived exactly as ControlledExperiment::run() derives them.
// ---------------------------------------------------------------------

struct Corpus
{
    core::TrainingSet training;
    std::unique_ptr<core::HybridRecommender> recommender;
};

struct SetupTiming
{
    std::vector<double> trainingSec, recommenderSec;

    /** Median set-up seconds. */
    double seconds() const
    {
        std::vector<double> total;
        for (size_t i = 0; i < trainingSec.size(); ++i)
            total.push_back(trainingSec[i] + recommenderSec[i]);
        return median(total);
    }
};

constexpr uint64_t kCorpusSeed = 1;

/** The corpus of experiment seed kCorpusSeed; set-up spans are trace 0. */
std::unique_ptr<Corpus>
buildCorpus(SetupTiming* timing)
{
    auto corpus = std::make_unique<Corpus>();
    core::ExperimentConfig defaults;
    auto t0 = Clock::now();
    corpus->training = g_spans.call("core.training.fromSpecs", 0, [&] {
        util::Rng root(kCorpusSeed);
        util::Rng train_rng = root.substream("training");
        auto specs =
            workloads::trainingSet(train_rng, defaults.trainingApps);
        return core::TrainingSet::fromSpecs(
            specs, train_rng, 2.0,
            sim::IsolationConfig::none(defaults.isolation.platform));
    });
    auto t1 = Clock::now();
    corpus->recommender =
        g_spans.call("core.recommender.construct", 0, [&] {
            return std::make_unique<core::HybridRecommender>(
                corpus->training, defaults.recommender);
        });
    if (timing) {
        timing->trainingSec.push_back(
            std::chrono::duration<double>(t1 - t0).count());
        timing->recommenderSec.push_back(secondsSince(t1));
    }
    return corpus;
}

constexpr int kSetupReps = 25;
constexpr int kSetupRepsPerUnit = 3;

/**
 * Time `reps` more set-up constructions. setup_s is the median of
 * kSetupReps taken before the units and kSetupRepsPerUnit taken after
 * each unit, so it samples the machine over the whole run.
 */
void
sampleSetup(SetupTiming* timing, int reps)
{
    for (int r = 0; r < reps; ++r)
        buildCorpus(timing);
}

// ---------------------------------------------------------------------
// Per-layer ledger (traced run). Every field defaults to 0: a layer a
// workload never reaches reads 0 calls, 0 share, 0 time.
// ---------------------------------------------------------------------

struct Ledger
{
    double trainingBuildMs = 0, recommenderBuildMs = 0;
    double analyzeCalls = 0, analyzeShare = 0, analyzeUsMean = 0;
    double analyzeUsP50 = 0, analyzeUsP99 = 0;
    double decomposeCalls = 0, decomposeShare = 0, decomposeUsMean = 0;
    double decomposeUsP50 = 0, decomposeUsP99 = 0;
    double pruneHitRate = 0, scratchWorkerHitRate = 0;
    double roundsPerVictim = 0, extraProbeRoundFrac = 0;
    double benchmarksPerRound = 0, detectorOtherShare = 0;
    double schedPlacementFailures = 0;
    double serveExecShare = 0, serveDecisionShare = 0, serveBatchMean = 0;
    double serveAdmitFrac = 0, serveSloMissFrac = 0;
    double fleetBootMs = 0, fleetEpochMs = 0, fleetParallelSpeedup = 0;
    double fleetVmTableSize = 0, fleetMigrations = 0;
    double fleetCrossShardMigrations = 0, fleetPlacementFailures = 0;
    double poolTasksExecuted = 0, poolSteals = 0, poolHelperTasks = 0;
    double traceOverheadFrac = 0;
    double wallVictimsPerS = 0, wallExecQps = 0, wallHostEpochsPerS = 0;
    double refKernelMs = 0;

    std::vector<Metric> metrics() const
    {
        return {
            {"core.training.build_ms", trainingBuildMs, "ms"},
            {"core.recommender.build_ms", recommenderBuildMs, "ms"},
            {"core.recommender.analyze_calls", analyzeCalls, "count"},
            {"core.recommender.analyze_share", analyzeShare, "ratio"},
            {"core.recommender.analyze_us_mean", analyzeUsMean, "us"},
            {"core.recommender.analyze_us_p50", analyzeUsP50, "us"},
            {"core.recommender.analyze_us_p99", analyzeUsP99, "us"},
            {"core.recommender.decompose_calls", decomposeCalls, "count"},
            {"core.recommender.decompose_share", decomposeShare, "ratio"},
            {"core.recommender.decompose_us_mean", decomposeUsMean, "us"},
            {"core.recommender.decompose_us_p50", decomposeUsP50, "us"},
            {"core.recommender.decompose_us_p99", decomposeUsP99, "us"},
            {"core.recommender.prune_hit_rate", pruneHitRate, "ratio"},
            {"core.recommender.scratch_worker_hit_rate",
             scratchWorkerHitRate, "ratio"},
            {"core.detector.rounds_per_victim", roundsPerVictim, "rounds"},
            {"core.detector.extra_probe_round_frac", extraProbeRoundFrac,
             "ratio"},
            {"core.profiler.benchmarks_per_round", benchmarksPerRound,
             "count"},
            {"core.detector.other_share", detectorOtherShare, "ratio"},
            {"sched.placement_failures", schedPlacementFailures, "count"},
            {"serve.exec_share", serveExecShare, "ratio"},
            {"serve.decision_share", serveDecisionShare, "ratio"},
            {"serve.batch_mean", serveBatchMean, "req"},
            {"serve.admit_frac", serveAdmitFrac, "ratio"},
            {"serve.slo_miss_frac", serveSloMissFrac, "ratio"},
            {"sim.fleet.boot_ms", fleetBootMs, "ms"},
            {"sim.fleet.epoch_ms", fleetEpochMs, "ms"},
            {"sim.fleet.parallel_speedup", fleetParallelSpeedup, "x"},
            {"sim.fleet.vm_table_size", fleetVmTableSize, "count"},
            {"sim.fleet.migrations", fleetMigrations, "count"},
            {"sim.fleet.cross_shard_migrations", fleetCrossShardMigrations,
             "count"},
            {"sim.fleet.placement_failures", fleetPlacementFailures,
             "count"},
            {"util.pool.tasks_executed", poolTasksExecuted, "count"},
            {"util.pool.steals", poolSteals, "count"},
            {"util.pool.helper_tasks", poolHelperTasks, "count"},
            {"obs.trace_overhead_frac", traceOverheadFrac, "ratio"},
            {"wall.victims_per_s", wallVictimsPerS, "1/s"},
            {"wall.exec_qps", wallExecQps, "1/s"},
            {"wall.host_epochs_per_s", wallHostEpochsPerS, "1/s"},
            {"ref.kernel_ms", refKernelMs, "ms"},
        };
    }
};

/** Counters and wall-histogram sums of one traced pass. */
struct Registry
{
    obs::Snapshot snap;

    double count(obs::MetricId id) const
    {
        return static_cast<double>(snap.counter(id).value);
    }
    const obs::HistogramSnapshot& hist(obs::MetricId id) const
    {
        return snap.histogram(id);
    }
};

/** Run `pass` with the metrics registry on; return what it recorded. */
Registry
recorded(const std::function<void()>& pass)
{
    auto& reg = obs::MetricsRegistry::global();
    reg.reset();
    reg.setEnabled(true);
    pass();
    reg.setEnabled(false);
    return Registry{reg.snapshot()};
}

void
fillPoolCounters(const Registry& r, Ledger* l)
{
    l->poolTasksExecuted = r.count(obs::MetricId::kPoolTasksExecuted);
    l->poolSteals = r.count(obs::MetricId::kPoolSteals);
    l->poolHelperTasks = r.count(obs::MetricId::kPoolHelperTasks);
    double hits = r.count(obs::MetricId::kRecommenderScratchWorkerHits);
    double spare =
        r.count(obs::MetricId::kRecommenderScratchSpareAcquisitions);
    l->scratchWorkerHitRate = ratio(hits, hits + spare);
}

/**
 * Recommender counters and shares of a 1-thread traced pass, where the
 * pass's thread-time is exactly its wall time.
 */
void
fillRecommender(const Registry& r, double thread_sec, Ledger* l)
{
    const auto& an = r.hist(obs::MetricId::kRecommenderAnalyzeWallUs);
    const auto& de = r.hist(obs::MetricId::kRecommenderDecomposeWallUs);
    l->analyzeCalls = r.count(obs::MetricId::kRecommenderAnalyzeCalls);
    l->decomposeCalls = r.count(obs::MetricId::kRecommenderDecomposeCalls);
    l->analyzeUsMean = an.mean();
    l->decomposeUsMean = de.mean();
    l->analyzeShare = ratio(an.sum * 1e-6, thread_sec);
    l->decomposeShare = ratio(de.sum * 1e-6, thread_sec);
    double skipped = r.count(obs::MetricId::kRecommenderPruneSkipped);
    double evaluated = r.count(obs::MetricId::kRecommenderPruneEvaluated);
    l->pruneHitRate = ratio(skipped, skipped + evaluated);
}

double
sumWall(const std::vector<UnitTiming>& units)
{
    double s = 0.0;
    for (const auto& u : units)
        s += u.wallSec;
    return s;
}

double
medianRefSec(const std::vector<UnitTiming>& units)
{
    std::vector<double> r;
    for (const auto& u : units)
        r.push_back(u.refSec);
    return median(r);
}

/** Everything one workload reports back to main(). */
struct WorkloadResult
{
    RunTotals totals;
    std::vector<Metric> metrics; ///< End-to-end or per-layer.
    /** Raw figures and traced-run checks, kept next to the metrics. */
    std::vector<std::pair<std::string, double>> diag;
};

void
addRunDiag(const RunTotals& t, size_t configs, WorkloadResult* out)
{
    out->diag.push_back({"units", static_cast<double>(t.units.size())});
    out->diag.push_back({"cycle_raw_s", cycleSeconds(t.units, configs,
                                                      false)});
    out->diag.push_back({"cycle_norm_s", cycleSeconds(t.units, configs,
                                                       true)});
    out->diag.push_back({"ref_median_ms", medianRefSec(t.units) * 1e3});
}

/** Run `fn` with the global pool at `threads`, restoring it after. */
template <class F>
void
withThreads(unsigned threads, F&& fn)
{
    unsigned restore = util::ThreadPool::globalThreads();
    util::ThreadPool::setGlobalThreads(threads);
    fn();
    util::ThreadPool::setGlobalThreads(restore);
}

/** What the traced passes measured. */
struct Traced
{
    Registry one;          ///< Registry of the 1-thread pass.
    double multiSec = 0.0; ///< Summed unit wall time, workload threads.
    double oneSec = 0.0;   ///< Summed unit wall time, 1 thread.
};

/**
 * The traced passes of `--trace 1`, with spans and the metrics registry
 * on: one cycle at the workload's thread count (pool counters, worker
 * slot hit rate, tracing overhead against `untraced_cycle`), then one at a
 * single thread, where thread-time equals wall time; `at_one_thread`
 * runs first inside the 1-thread pool. Both passes verify against the
 * untraced units' digests and fold into `totals`. Spans stay on.
 */
Traced
tracedPasses(uint64_t seed, size_t configs, size_t start,
             ReferenceKernel& ref, const UnitFn& unit, double untraced_cycle,
             Ledger* l, RunTotals* totals,
             const std::function<void()>& at_one_thread = {})
{
    g_spans.setEnabled(true);
    RunTotals multi, single;
    fillPoolCounters(recorded([&] {
                         multi = timedLoop(configs, start, 0.0, configs,
                                           ref, unit);
                     }),
                     l);
    l->traceOverheadFrac =
        ratio(cycleSeconds(multi.units, configs, true), untraced_cycle) -
        1.0;
    Traced t;
    withThreads(1, [&] {
        if (at_one_thread)
            at_one_thread();
        ReferenceKernel ref1(seed, 4);
        t.one = recorded([&] {
            single = timedLoop(configs, start, 0.0, configs, ref1, unit);
        });
    });
    t.multiSec = sumWall(multi.units);
    t.oneSec = sumWall(single.units);
    absorb(totals, multi);
    absorb(totals, single);
    return t;
}

// ---------------------------------------------------------------------
// detect: ControlledExperiment::run() at the paper's configuration.
// ---------------------------------------------------------------------

constexpr unsigned kDetectThreads = 2;
struct DetectCase
{
    uint64_t seed;
    core::ExperimentConfig::Policy policy;
};
/** Fixed so the Sim-class metrics repeat exactly; --seed rotates it. */
const DetectCase kDetectCycle[] = {
    {11, core::ExperimentConfig::Policy::LeastLoaded},
    {11, core::ExperimentConfig::Policy::Quasar},
    {23, core::ExperimentConfig::Policy::LeastLoaded},
    {23, core::ExperimentConfig::Policy::Quasar},
};
constexpr size_t kDetectConfigs = std::size(kDetectCycle);

core::ExperimentConfig
detectConfig(size_t c)
{
    core::ExperimentConfig cfg;
    cfg.servers = 40;
    cfg.victims = 108;
    cfg.seed = kDetectCycle[c].seed;
    cfg.policy = kDetectCycle[c].policy;
    return cfg;
}

/** Structural checks every experiment result must pass. */
bool
saneDetect(const core::ExperimentResult& r, const core::ExperimentConfig& cfg,
           std::string* why)
{
    if (r.outcomes.empty() || r.outcomes.size() > cfg.victims) {
        *why = "victim count " + std::to_string(r.outcomes.size());
        return false;
    }
    for (const auto& o : r.outcomes) {
        bool bad_iter = o.classCorrect
                            ? (o.iterations < 1 ||
                               o.iterations > cfg.detector.maxIterations)
                            : o.iterations != 0;
        if (bad_iter || o.server >= cfg.servers || o.coResidents < 1) {
            *why = "inconsistent outcome for " + o.spec.classLabel();
            return false;
        }
    }
    return true;
}

WorkloadResult
runDetect(const Options& opt)
{
    WorkloadResult out;
    g_spans.setEnabled(opt.trace);
    util::ThreadPool::setGlobalThreads(kDetectThreads);
    SetupTiming setup;
    sampleSetup(&setup, kSetupReps);
    ReferenceKernel ref(opt.seed, 4 * kDetectThreads);

    DigestBook book;
    std::vector<std::optional<core::ExperimentResult>> first(kDetectConfigs);
    auto unit = [&](size_t c, size_t i, std::string* why) {
        core::ExperimentConfig cfg = detectConfig(c);
        core::ControlledExperiment exp(cfg);
        core::ExperimentResult r = g_spans.call(
            "core.ControlledExperiment.run", i + 1, [&] { return exp.run(); });
        if (opt.tamper && i == kDetectConfigs) // First repeated unit.
            r.outcomes[0].classCorrect = !r.outcomes[0].classCorrect;
        if (!saneDetect(r, cfg, why))
            return false;
        if (!book.check(c, r.digest())) {
            *why = "digest differs from the config's first unit";
            return false;
        }
        if (!first[c])
            first[c] = std::move(r);
        return true;
    };
    size_t start = opt.seed % kDetectConfigs;
    g_spans.setEnabled(false);
    out.totals = timedLoop(kDetectConfigs, start, opt.seconds,
                           kDetectConfigs + opt.tamper, ref, unit,
                           [&] { sampleSetup(&setup, kSetupRepsPerUnit); });
    addRunDiag(out.totals, kDetectConfigs, &out);

    // Sim-class metrics over one pass of the fixed cycle.
    size_t victims = 0, cls = 0, chr = 0, detected = 0, rounds = 0;
    for (const auto& r : first) {
        if (!r)
            continue;
        for (const auto& o : r->outcomes) {
            ++victims;
            cls += o.classCorrect;
            chr += o.charCorrect;
            if (o.classCorrect) {
                ++detected;
                rounds += static_cast<size_t>(o.iterations);
            }
        }
    }
    double cycle_norm = cycleSeconds(out.totals.units, kDetectConfigs, true);
    double cycle_raw = cycleSeconds(out.totals.units, kDetectConfigs, false);
    double v = static_cast<double>(victims);
    out.diag.push_back({"raw_victims_per_s", ratio(v, cycle_raw)});

    if (!opt.trace) {
        out.metrics = {
            {"setup_s", setup.seconds(), "s"},
            {"victims_per_s", ratio(v, cycle_norm), "victims/s"},
            {"class_accuracy", ratio(static_cast<double>(cls), v), "ratio"},
            {"char_accuracy", ratio(static_cast<double>(chr), v), "ratio"},
            {"sim_detect_rounds",
             ratio(static_cast<double>(rounds),
                   static_cast<double>(detected)),
             "rounds"},
        };
        return out;
    }

    Ledger l;
    l.trainingBuildMs = median(setup.trainingSec) * 1e3;
    l.recommenderBuildMs = median(setup.recommenderSec) * 1e3;
    l.wallVictimsPerS = ratio(v, cycle_raw);
    l.refKernelMs = medianRefSec(out.totals.units) * 1e3;
    Traced t = tracedPasses(opt.seed, kDetectConfigs, start, ref, unit,
                            cycle_norm, &l, &out.totals);
    const Registry& one = t.one;
    double thread_sec = t.oneSec;
    fillRecommender(one, thread_sec, &l);
    l.detectorOtherShare = 1.0 - l.analyzeShare - l.decomposeShare;
    double scheduled = one.count(obs::MetricId::kExperimentVictimsScheduled);
    double det_rounds = one.count(obs::MetricId::kDetectorRounds);
    l.roundsPerVictim = ratio(det_rounds, scheduled);
    l.extraProbeRoundFrac =
        ratio(one.count(obs::MetricId::kDetectorExtraProbeRounds),
              det_rounds);
    l.benchmarksPerRound =
        ratio(one.count(obs::MetricId::kProfilerBenchmarksRun),
              one.count(obs::MetricId::kProfilerRounds));
    l.schedPlacementFailures =
        one.count(obs::MetricId::kSchedPlacementFailures);
    // Placement failures seen from outside: victims asked for minus
    // victims that came back with an outcome.
    double dropped =
        static_cast<double>(kDetectConfigs * detectConfig(0).victims) - v;
    out.diag.insert(out.diag.end(),
                    {{"check.thread_time_s", thread_sec},
                     {"check.share_sum", l.analyzeShare + l.decomposeShare +
                                             l.detectorOtherShare},
                     {"check.placement_failures_from_outcomes", dropped}});
    out.metrics = l.metrics();
    return out;
}

// ---------------------------------------------------------------------
// serve: ServeEngine::run() at ~80% of modelled capacity.
// ---------------------------------------------------------------------

constexpr unsigned kServeThreads = 2;
/** Load-generator seeds, fixed so the Sim-class metrics repeat. */
const uint64_t kServeSeeds[] = {3, 5};
constexpr size_t kServeConfigs = std::size(kServeSeeds);

serve::ServeConfig
serveConfig(size_t c)
{
    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 256;
    cfg.maxBatch = 8;
    cfg.load.requests = 2400;
    cfg.load.offeredQps = 2400.0;
    cfg.load.sloMs = 50.0;
    cfg.load.decomposeFraction = 0.15;
    cfg.load.seed = kServeSeeds[c];
    return cfg;
}

/** Conservation laws and per-request checks of one serve result. */
bool
saneServe(const serve::ServeResult& r, std::string* why)
{
    const serve::ServeStats& s = r.stats;
    if (s.offered != s.admitted + s.rejectedQueueFull +
                         s.rejectedSloInfeasible ||
        s.admitted != s.completed + s.shedDeadline ||
        r.outcomes.size() != s.offered) {
        *why = "request conservation violated";
        return false;
    }
    uint64_t completed = 0;
    for (const auto& o : r.outcomes) {
        if (o.outcome != serve::Outcome::Completed)
            continue;
        ++completed;
        if (o.resultDigest == 0) {
            *why = "completed request without a result";
            return false;
        }
    }
    if (completed != s.completed) {
        *why = "completed count disagrees with the outcomes";
        return false;
    }
    return true;
}

WorkloadResult
runServe(const Options& opt)
{
    WorkloadResult out;
    g_spans.setEnabled(opt.trace);
    util::ThreadPool::setGlobalThreads(kServeThreads);
    SetupTiming setup;
    sampleSetup(&setup, kSetupReps);
    ReferenceKernel ref(opt.seed, 4 * kServeThreads);
    std::unique_ptr<Corpus> corpus = buildCorpus(nullptr);

    DigestBook book;
    std::vector<std::optional<serve::ServeStats>> first(kServeConfigs);
    auto unit = [&](size_t c, size_t i, std::string* why) {
        serve::ServeEngine engine(*corpus->recommender, serveConfig(c));
        serve::ServeResult r = g_spans.call(
            "serve.ServeEngine.run", i + 1, [&] { return engine.run(); });
        if (opt.tamper && i == kServeConfigs) // First repeated unit.
            ++r.stats.completed;
        if (!saneServe(r, why))
            return false;
        if (!book.check(c, r.digest())) {
            *why = "digest differs from the config's first unit";
            return false;
        }
        if (!first[c])
            first[c] = r.stats;
        return true;
    };
    size_t start = opt.seed % kServeConfigs;
    g_spans.setEnabled(false);
    out.totals = timedLoop(kServeConfigs, start, opt.seconds,
                           kServeConfigs + opt.tamper, ref, unit,
                           [&] { sampleSetup(&setup, kSetupRepsPerUnit); });
    addRunDiag(out.totals, kServeConfigs, &out);

    double completed = 0, goodput = 0, offered = 0, admitted = 0;
    double slo_misses = 0, batches = 0, batch_reqs = 0;
    std::vector<double> latency;
    for (const auto& s : first) {
        if (!s)
            continue;
        completed += static_cast<double>(s->completed);
        offered += static_cast<double>(s->offered);
        admitted += static_cast<double>(s->admitted);
        slo_misses += static_cast<double>(s->sloMisses);
        goodput += s->goodputQps / kServeConfigs;
        batches += static_cast<double>(s->batchSizes.count());
        for (double b : s->batchSizes.samples())
            batch_reqs += b;
        latency.insert(latency.end(), s->latencyMs.samples().begin(),
                       s->latencyMs.samples().end());
    }
    double cycle_norm = cycleSeconds(out.totals.units, kServeConfigs, true);
    double cycle_raw = cycleSeconds(out.totals.units, kServeConfigs, false);
    out.diag.push_back({"raw_exec_qps", ratio(completed, cycle_raw)});

    if (!opt.trace) {
        out.metrics = {
            {"setup_s", setup.seconds(), "s"},
            {"exec_qps", ratio(completed, cycle_norm), "req/s"},
            {"sim_goodput_qps", goodput, "req/sim_s"},
            {"sim_latency_p50_ms", percentile(latency, 50), "sim_ms"},
            {"sim_latency_p99_ms", percentile(latency, 99), "sim_ms"},
        };
        out.diag.push_back({"latency_samples",
                            static_cast<double>(latency.size())});
        return out;
    }

    Ledger l;
    l.trainingBuildMs = median(setup.trainingSec) * 1e3;
    l.recommenderBuildMs = median(setup.recommenderSec) * 1e3;
    l.wallExecQps = ratio(completed, cycle_raw);
    l.refKernelMs = medianRefSec(out.totals.units) * 1e3;
    l.serveBatchMean = ratio(batch_reqs, batches);
    l.serveAdmitFrac = ratio(admitted, offered);
    l.serveSloMissFrac = ratio(slo_misses, completed);
    // The recommender is rebuilt for the 1-thread pass so its per-worker
    // scratch slots belong to the resized pool.
    Traced t = tracedPasses(opt.seed, kServeConfigs, start, ref, unit,
                            cycle_norm, &l, &out.totals,
                            [&] { corpus = buildCorpus(nullptr); });

    // Replay the serve query stream as direct single-thread calls.
    std::vector<double> analyze_us, decompose_us;
    serve::LoadGen gen(corpus->training, serveConfig(0).load);
    constexpr size_t kReplay = 1000;
    constexpr uint64_t kReplayTrace = 1'000'000;
    for (uint64_t id = 0;
         analyze_us.size() < kReplay || decompose_us.size() < kReplay;
         ++id) {
        serve::Request req = gen.makeRequest(id, 0, 0.0);
        auto& bucket = req.isDecompose ? decompose_us : analyze_us;
        if (bucket.size() >= kReplay)
            continue;
        auto t0 = Clock::now();
        if (req.isDecompose)
            g_spans.call("core.recommender.decompose", kReplayTrace + id, [&] {
                return corpus->recommender->decompose(req.query,
                                                      req.coreShared);
            });
        else
            g_spans.call("core.recommender.analyze", kReplayTrace + id, [&] {
                return corpus->recommender->analyze(req.query);
            });
        bucket.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
    }
    const Registry& one = t.one;
    double thread_sec = t.oneSec;
    fillRecommender(one, thread_sec, &l);
    l.analyzeUsP50 = percentile(analyze_us, 50);
    l.analyzeUsP99 = percentile(analyze_us, 99);
    l.decomposeUsP50 = percentile(decompose_us, 50);
    l.decomposeUsP99 = percentile(decompose_us, 99);
    l.serveExecShare =
        ratio(one.hist(obs::MetricId::kServeExecWallUs).sum * 1e-6,
              thread_sec);
    l.serveDecisionShare = 1.0 - l.serveExecShare;
    out.diag.insert(
        out.diag.end(),
        {{"check.thread_time_s", thread_sec},
         {"check.replayed_analyze", static_cast<double>(analyze_us.size())},
         {"check.replayed_decompose",
          static_cast<double>(decompose_us.size())}});
    out.metrics = l.metrics();
    return out;
}

// ---------------------------------------------------------------------
// fleet: FleetCluster::run() over 32k hosts x 32 epochs.
// ---------------------------------------------------------------------

constexpr unsigned kFleetThreads = 4;
constexpr int kFleetSetupReps = 3;
constexpr size_t kFleetHosts = 32768;
constexpr int kFleetEpochs = 32;

/** The fleet of benchmark seed `seed`, run for `epochs` epochs. */
sim::FleetConfig
fleetConfig(uint64_t seed, int epochs)
{
    sim::FleetConfig cfg;
    cfg.hosts = kFleetHosts;
    cfg.tenants = cfg.hosts * 8;
    cfg.shards = cfg.hosts / 512;
    cfg.epochs = epochs;
    cfg.arrivalsPerHostEpoch = 0.3;
    cfg.departureProb = 0.05;
    cfg.migrationProb = 0.03;
    cfg.hostFaultProb = 0.01;
    cfg.seed = 2017 + seed;
    return cfg;
}

WorkloadResult
runFleet(const Options& opt)
{
    WorkloadResult out;
    g_spans.setEnabled(opt.trace);
    util::ThreadPool::setGlobalThreads(kFleetThreads);

    // Set-up: construction plus boot, i.e. an epochs = 0 run.
    std::vector<double> boot;
    for (int r = 0; r < kFleetSetupReps; ++r) {
        auto t0 = Clock::now();
        sim::FleetCluster fleet = g_spans.call("sim.FleetCluster.construct",
                                               0, [&] {
            return sim::FleetCluster(fleetConfig(opt.seed, 0));
        });
        g_spans.call("sim.FleetCluster.boot", 0, [&] { return fleet.run(); });
        boot.push_back(secondsSince(t0));
    }
    ReferenceKernel ref(opt.seed, 4 * kFleetThreads);

    DigestBook book;
    sim::FleetResult last;
    size_t vm_table = 0;
    auto unit = [&](size_t c, size_t i, std::string* why) {
        sim::FleetCluster fleet =
            g_spans.call("sim.FleetCluster.construct", i + 1, [&] {
                return sim::FleetCluster(fleetConfig(opt.seed, kFleetEpochs));
            });
        sim::FleetResult r = g_spans.call("sim.FleetCluster.run", i + 1,
                                          [&] { return fleet.run(); });
        std::string audit;
        bool valid = fleet.validate(&audit);
        if (opt.tamper && i == 1) // First repeated unit.
            valid = false, audit = "tampered audit";
        if (!valid) {
            *why = "validate(): " + audit;
            return false;
        }
        if (r.vmsBooted + r.arrivals - r.departures != r.vmsAlive ||
            fleet.aliveVms() != r.vmsAlive) {
            *why = "VM conservation violated";
            return false;
        }
        if (!book.check(c, r.digest)) {
            *why = "digest differs from the first unit";
            return false;
        }
        vm_table = fleet.vmCount();
        last = r;
        return true;
    };
    // One config; a second unit always runs so the digest is repeated.
    g_spans.setEnabled(false);
    out.totals = timedLoop(1, 0, opt.seconds, 2, ref, unit);
    addRunDiag(out.totals, 1, &out);
    double host_epochs = static_cast<double>(kFleetHosts * kFleetEpochs);
    double unit_norm = cycleSeconds(out.totals.units, 1, true);
    double unit_raw = cycleSeconds(out.totals.units, 1, false);
    out.diag.push_back({"norm_host_epochs_per_s", ratio(host_epochs,
                                                         unit_norm)});

    if (!opt.trace) {
        // Raw: fleet's memory-bound units do not follow the reference
        // kernel, whose rescale moved this median by 20% between sets.
        out.metrics = {
            {"setup_s", median(boot), "s"},
            {"host_epochs_per_s", ratio(host_epochs, unit_raw),
             "host_epochs/s"},
        };
        return out;
    }

    Ledger l;
    l.fleetBootMs = median(boot) * 1e3;
    l.fleetEpochMs = (unit_raw - median(boot)) * 1e3 / kFleetEpochs;
    l.wallHostEpochsPerS = ratio(host_epochs, unit_raw);
    l.refKernelMs = medianRefSec(out.totals.units) * 1e3;
    l.fleetVmTableSize = static_cast<double>(vm_table);
    l.fleetMigrations = static_cast<double>(last.migrations);
    l.fleetCrossShardMigrations =
        static_cast<double>(last.crossShardMigrations);
    l.fleetPlacementFailures = static_cast<double>(last.placementFailures);
    Traced t =
        tracedPasses(opt.seed, 1, 0, ref, unit, unit_norm, &l, &out.totals);
    l.fleetParallelSpeedup = ratio(t.oneSec, t.multiSec);
    out.metrics = l.metrics();
    return out;
}

bool
parseArgs(int argc, char** argv, Options* opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--tamper") {
            opt->tamper = true;
            continue;
        }
        if (!(v = value()))
            return false;
        char* end = nullptr;
        if (a == "--workload")
            opt->workload = v;
        else if (a == "--out")
            opt->outDir = v;
        else if (a == "--seed")
            opt->seed = std::strtoull(v, &end, 10);
        else if (a == "--seconds")
            opt->seconds = std::strtod(v, &end);
        else if (a == "--trace" && (std::string(v) == "0" ||
                                    std::string(v) == "1"))
            opt->trace = std::string(v) == "1";
        else
            return false;
        if (end && *end != '\0')
            return false;
    }
    return opt->workload == "detect" || opt->workload == "serve" ||
           opt->workload == "fleet";
}

void
writeSpans(const std::string& path)
{
    std::ofstream os(path);
    for (const auto& s : g_spans.spans())
        os << "{\"name\":" << jsonString(s.name) << ",\"trace_id\":"
           << s.trace << ",\"span_id\":" << s.id
           << ",\"parent_id\":" << s.parent
           << ",\"start_us\":" << jsonNumber(s.startUs)
           << ",\"end_us\":" << jsonNumber(s.endUs) << "}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::cerr << "usage: perfbench --workload detect|serve|fleet"
                     " --seed N --seconds S --trace 0|1 [--out DIR]"
                     " [--tamper]\n";
        return 2;
    }
    // Per-victim "cluster full" warnings would write to stderr inside
    // timed units; the traced run counts them as
    // sched.placement_failures instead.
    obs::setLogLevel(obs::LogLevel::Error);

    WorkloadResult r = opt.workload == "detect" ? runDetect(opt)
                       : opt.workload == "serve" ? runServe(opt)
                                                 : runFleet(opt);
    size_t attempted = r.totals.units.size();
    size_t failed = r.totals.failed;
    if (opt.trace) {
        writeSpans(opt.outDir + "/spans.jsonl");
        std::ofstream os(opt.outDir + "/layers.json");
        os << metricsJson(r.metrics) << "\n";
    } else {
        double ok = ratio(static_cast<double>(attempted - failed),
                          static_cast<double>(attempted));
        r.metrics.push_back({"ok_frac", ok, "ratio"});
        r.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }

    std::ostringstream diag;
    diag << "{\"first_failure\":" << jsonString(r.totals.firstFailure);
    for (const auto& [name, value] : r.diag)
        diag << "," << jsonString(name) << ":" << jsonNumber(value);
    diag << "}";

    std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":" << metricsJson(r.metrics)
              << ",\"diag\":" << diag.str() << "}" << std::endl;
    return 0;
}
