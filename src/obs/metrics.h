#ifndef BOLT_OBS_METRICS_H
#define BOLT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "shards.h"

namespace bolt {
namespace obs {

/**
 * Determinism class of a metric's merged value:
 *
 *  - Sim: a pure function of (config, seed). Identical at any thread
 *    count and on every rerun — these are the values the figures and
 *    the determinism tests may assert on.
 *  - Wall: depends on wall-clock time or scheduling (latencies, the
 *    chunks each pool worker ran). Reported for performance insight only.
 *
 * Histogram *bucket counts* of Sim histograms are bit-deterministic;
 * their floating-point `sum` is summed across shards in shard-creation
 * order, so its last bits may differ between runs even for Sim metrics.
 */
enum class MetricClass { Sim, Wall };

enum class MetricKind { Counter, Gauge, Histogram };

/*
 * The metric catalog. One X-macro per kind keeps the id, wire name,
 * determinism class and help string in a single place; the enum, the
 * descriptor table and docs/OBSERVABILITY.md follow this list.
 *
 * Counters: X(Id, "name", Class, perShard, "help")
 * Gauges:   X(Id, "name", Class, "help")           (max-tracking)
 * Histograms: X(Id, "name", Class, lo, hi, bins, "help")
 */
#define BOLT_COUNTER_METRICS(X)                                              \
    X(ExperimentVictimsScheduled, "experiment.victims_scheduled",            \
      Sim, false, "Victims successfully placed on the cluster")              \
    X(ExperimentVictimsDetected, "experiment.victims_detected",              \
      Sim, false, "Victims whose class was correctly identified")            \
    X(ExperimentVictimsCharacterized, "experiment.victims_characterized",    \
      Sim, false, "Victims whose dominant resource was identified")          \
    X(ExperimentHostsProbed, "experiment.hosts_probed",                      \
      Sim, false, "Hosts on which the adversary ran detection rounds")       \
    X(SchedPicks, "sched.picks",                                             \
      Sim, false, "Placement decisions requested from a scheduler policy")   \
    X(SchedPickNoFit, "sched.pick_no_fit",                                   \
      Sim, false, "Picks where no server had capacity")                      \
    X(SchedPickFallbacks, "sched.pick_fallbacks",                            \
      Sim, false,                                                            \
      "Policy picks overridden by the per-host victim cap fallback")         \
    X(SchedPlacementFailures, "sched.placement_failures",                    \
      Sim, false, "Victims dropped because the cluster was full")            \
    X(SchedPolicyConstrainedPicks, "sched.policy_constrained_picks",         \
      Sim, false,                                                            \
      "Placement decisions carrying affinity/anti-affinity constraints")     \
    X(SchedPolicyAffinityHonored, "sched.policy_affinity_honored",           \
      Sim, false,                                                            \
      "Constrained picks that landed on a requested affinity server")        \
    X(SchedPolicyAffinityFallbacks, "sched.policy_affinity_fallbacks",       \
      Sim, false,                                                            \
      "Affinity requests with no feasible preferred server")                 \
    X(SchedPolicyReplicaPicks, "sched.policy_replica_picks",                 \
      Sim, false,                                                            \
      "Replica placements committed by placeReplicaSet fan-outs")            \
    X(DetectorRounds, "detector.rounds",                                     \
      Sim, false, "Detection rounds executed")                               \
    X(DetectorExtraProbeRounds, "detector.extra_probe_rounds",               \
      Sim, false, "Rounds that widened an inconclusive first analysis")      \
    X(DetectorExtraProbes, "detector.extra_probes",                          \
      Sim, false, "In-round widening probes executed")                       \
    X(DetectorShutterRounds, "detector.shutter_rounds",                      \
      Sim, false, "Rounds that fell back to shutter profiling")              \
    X(DetectorDecomposedGuesses, "detector.decomposed_guesses",              \
      Sim, false, "Co-resident guesses produced by decomposition")           \
    X(DetectorFallbackGuesses, "detector.fallback_guesses",                  \
      Sim, false, "Rounds resolved by the whole-signal fallback match")      \
    X(DetectorInconclusiveRounds, "detector.inconclusive_rounds",            \
      Sim, false, "Rounds that produced no guess at all")                    \
    X(DetectorRetryRounds, "detector.retry_rounds",                          \
      Sim, false,                                                            \
      "Backed-off re-measurement rounds after fault-dropped samples")        \
    X(DetectorRetryProbes, "detector.retry_probes",                          \
      Sim, false, "Probes re-run during re-measurement rounds")              \
    X(DetectorGatedAbstentions, "detector.gated_abstentions",                \
      Sim, false,                                                            \
      "Rounds abstaining (no guess) on coverage lost to faults")             \
    X(FaultTenantArrivals, "fault.tenant_arrivals",                          \
      Sim, false, "Background VMs churned onto a host mid-detection")        \
    X(FaultTenantDepartures, "fault.tenant_departures",                      \
      Sim, false, "Victims that departed mid-detection (tenant churn)")      \
    X(FaultPhaseFlips, "fault.phase_flips",                                  \
      Sim, false, "Victim load-pattern phase flips injected")                \
    X(FaultSampleDropouts, "fault.sample_dropouts",                          \
      Sim, false, "Probe samples dropped (masked, not zeroed)")              \
    X(FaultSampleSpikes, "fault.sample_spikes",                              \
      Sim, false, "Probe samples perturbed by an outlier spike")             \
    X(ProfilerRounds, "profiler.rounds",                                     \
      Sim, false, "Standard profiling rounds executed")                      \
    X(ProfilerBenchmarksRun, "profiler.benchmarks_run",                      \
      Sim, false, "Microbenchmark probes run in standard rounds")            \
    X(ProfilerShutterWindows, "profiler.shutter_windows",                    \
      Sim, false, "Shutter sampling windows executed")                       \
    X(RecommenderAnalyzeCalls, "recommender.analyze_calls",                  \
      Sim, false, "HybridRecommender::analyze invocations")                  \
    X(RecommenderDecomposeCalls, "recommender.decompose_calls",              \
      Sim, false, "HybridRecommender::decompose invocations")                \
    X(RecommenderScratchWorkerHits, "recommender.scratch_worker_hits",       \
      Wall, false, "Queries served by their thread's existing scratch slot") \
    X(RecommenderScratchSpareAcquisitions,                                   \
      "recommender.scratch_spare_acquisitions",                              \
      Wall, false, "Per-thread query scratch slots created (first query)")   \
    X(RecommenderPruneSkipped, "recommender.prune_skipped",                  \
      Sim, false,                                                            \
      "decompose() candidates skipped by the lower-bound prune")             \
    X(RecommenderPruneEvaluated, "recommender.prune_evaluated",              \
      Sim, false, "decompose() candidates fully evaluated")                  \
    X(PoolTasksExecuted, "pool.tasks_executed",                              \
      Wall, true,                                                            \
      "parallelFor chunks run by pool workers (per-shard = per-worker)")     \
    X(PoolSteals, "pool.steals",                                             \
      Wall, false, "Always 0: the pool has no deques to steal from")         \
    X(PoolHelperTasks, "pool.helper_tasks",                                  \
      Wall, false, "parallelFor chunks run by the thread that called it")    \
    X(ServeRequestsOffered, "serve.requests_offered",                        \
      Sim, false, "Requests the load generator offered to the engine")       \
    X(ServeAdmitted, "serve.admitted",                                       \
      Sim, false, "Requests admitted into the bounded queue")                \
    X(ServeRejectedQueueFull, "serve.rejected_queue_full",                   \
      Sim, false, "Requests rejected at admission: queue at capacity")       \
    X(ServeRejectedSloInfeasible, "serve.rejected_slo_infeasible",           \
      Sim, false,                                                            \
      "Requests rejected at admission: predicted wait busts the SLO")       \
    X(ServeShedDeadline, "serve.shed_deadline",                              \
      Sim, false, "Admitted requests shed at dequeue: deadline expired")     \
    X(ServeCompleted, "serve.completed",                                     \
      Sim, false, "Requests executed to completion")                         \
    X(ServeSloMisses, "serve.slo_misses",                                    \
      Sim, false, "Completed requests that finished past their deadline")    \
    X(ServeBatchesFormed, "serve.batches_formed",                            \
      Sim, false, "Micro-batches dispatched to service lanes")               \
    X(ServeBatchDeferrals, "serve.batch_deferrals",                          \
      Sim, false, "One-shot batch-fill waits taken (batchWaitMs > 0)")       \
    X(FleetEpochsRun, "fleet.epochs_run",                                    \
      Sim, false, "Fleet simulation epochs executed")                        \
    X(FleetVmArrivals, "fleet.vm_arrivals",                                  \
      Sim, false, "Tenant VMs that arrived and were placed mid-run")         \
    X(FleetVmDepartures, "fleet.vm_departures",                              \
      Sim, false, "Tenant VMs that departed (churn or failed evacuation)")   \
    X(FleetVmMigrations, "fleet.vm_migrations",                              \
      Sim, false, "VM migrations (churn moves and fault evacuations)")       \
    X(FleetCrossShardMigrations, "fleet.cross_shard_migrations",             \
      Sim, false, "Migrations that crossed a shard boundary")                \
    X(FleetHostFaults, "fleet.host_faults",                                  \
      Sim, false, "Host-epoch faults that evacuated a host")                 \
    X(ColoCampaigns, "colo.campaigns",                                       \
      Sim, false, "Attacker campaigns played in arms-race tournaments")      \
    X(ColoProbeLaunches, "colo.probe_launches",                              \
      Sim, false, "Attacker probe VMs launched across campaigns")            \
    X(ColoCoResidencyHits, "colo.coresidency_hits",                          \
      Sim, false,                                                            \
      "Probe launches confirmed co-resident with the victim")                \
    X(ColoOracleChecks, "colo.oracle_checks",                                \
      Sim, false,                                                            \
      "Sender/receiver latency confirmations run by the oracle")             \
    X(ColoDefenseMigrations, "colo.defense_migrations",                      \
      Sim, false,                                                            \
      "Reactive re-placements performed by the secure allocator")            \
    X(ScenarioStagesRun, "scenario.stages_run",                              \
      Sim, false, "Scenario stages executed (sub-scenarios included)")       \
    X(ScenarioIncludesRun, "scenario.includes_run",                          \
      Sim, false, "Sub-scenario runs performed by include stages")           \
    X(ScenarioServeSegments, "scenario.serve_segments",                      \
      Sim, false, "Arrival-ramp segments executed by serve stages")          \
    X(TelemetrySeriesDropped, "telemetry.series_dropped",                    \
      Sim, false,                                                            \
      "Keyed-series label creations refused by the cardinality cap")         \
    X(MonitorWindowsEvaluated, "monitor.windows_evaluated",                  \
      Sim, false, "Closed telemetry windows evaluated by the SLO monitor")   \
    X(MonitorAlertsFired, "monitor.alerts_fired",                            \
      Sim, false, "SLO rule transitions into the firing state")              \
    X(MonitorAlertsResolved, "monitor.alerts_resolved",                      \
      Sim, false, "SLO rule transitions back to the resolved state")

#define BOLT_GAUGE_METRICS(X)                                                \
    X(ServeQueueDepthPeak, "serve.queue_depth_peak",                         \
      Sim, "High-water mark of the bounded request queue")                   \
    X(FleetVmsAlivePeak, "fleet.vms_alive_peak",                             \
      Sim, "High-water mark of resident VMs across fleet epochs")

#define BOLT_HISTOGRAM_METRICS(X)                                            \
    X(DetectorIterationsToConvergence,                                       \
      "detector.iterations_to_convergence", Sim, 0.5, 32.5, 32,              \
      "Rounds until a victim was correctly identified (Fig. 7 live)")        \
    X(DetectorRoundSimSec, "detector.round_sim_sec",                         \
      Sim, 0.0, 60.0, 60, "Simulated seconds one detection round consumed")  \
    X(ExperimentHostSimSec, "experiment.host_sim_sec",                       \
      Sim, 0.0, 600.0, 60,                                                   \
      "Simulated seconds of profiling per host, first to last round")        \
    X(RecommenderAnalyzeWallUs, "recommender.analyze_wall_us",               \
      Wall, 0.0, 20000.0, 80, "Wall-clock latency of analyze(), usec")       \
    X(RecommenderDecomposeWallUs, "recommender.decompose_wall_us",           \
      Wall, 0.0, 20000.0, 80, "Wall-clock latency of decompose(), usec")     \
    X(ServeBatchSize, "serve.batch_size",                                    \
      Sim, 0.5, 64.5, 64, "Executable requests per dispatched micro-batch")  \
    X(ServeQueueDelaySimMs, "serve.queue_delay_sim_ms",                      \
      Sim, 0.0, 100.0, 100, "Sim-time queue delay of dequeued requests")     \
    X(ServeLatencySimMs, "serve.latency_sim_ms",                             \
      Sim, 0.0, 200.0, 100,                                                  \
      "End-to-end sim latency of completed requests")                        \
    X(ServeExecWallUs, "serve.exec_wall_us",                                 \
      Wall, 0.0, 20000.0, 80,                                                \
      "Wall-clock execution time per micro-batch, usec")                     \
    X(ScenarioStageSimSec, "scenario.stage_sim_sec",                         \
      Sim, 0.0, 600.0, 60,                                                   \
      "Virtual seconds one scenario stage consumed")                         \
    X(FleetEpochUtilPct, "fleet.epoch_util_pct",                             \
      Sim, 0.0, 100.0, 50,                                                   \
      "Mean host utilization per fleet epoch, percent")                      \
    X(FleetBootWallMs, "fleet.boot_wall_ms",                                 \
      Wall, 0.0, 10000.0, 200, "Wall-clock time of the fleet boot, msec")    \
    X(FleetDecideWallMs, "fleet.decide_wall_ms",                             \
      Wall, 0.0, 1000.0, 200,                                                \
      "Wall-clock time of one epoch's decision plane (decideEpoch), msec")   \
    X(FleetProfileWallMs, "fleet.profile_wall_ms",                           \
      Wall, 0.0, 1000.0, 200,                                                \
      "Wall-clock time of one epoch's execution plane (profileEpoch), msec")

/**
 * Stable metric identifiers. Counters first, then gauges, then
 * histograms — the registry's flat storage indexes rely on this order.
 */
enum class MetricId : uint32_t {
#define BOLT_OBS_ENUM(id_, ...) k##id_,
    BOLT_COUNTER_METRICS(BOLT_OBS_ENUM)
    BOLT_GAUGE_METRICS(BOLT_OBS_ENUM)
    BOLT_HISTOGRAM_METRICS(BOLT_OBS_ENUM)
#undef BOLT_OBS_ENUM
    kCount
};

#define BOLT_OBS_COUNT_ONE(...) +1
constexpr size_t kNumCounters = 0 BOLT_COUNTER_METRICS(BOLT_OBS_COUNT_ONE);
constexpr size_t kNumGauges = 0 BOLT_GAUGE_METRICS(BOLT_OBS_COUNT_ONE);
constexpr size_t kNumHistograms =
    0 BOLT_HISTOGRAM_METRICS(BOLT_OBS_COUNT_ONE);
#undef BOLT_OBS_COUNT_ONE
constexpr size_t kNumMetrics = kNumCounters + kNumGauges + kNumHistograms;
static_assert(kNumMetrics == static_cast<size_t>(MetricId::kCount));

/** Static description of one catalog entry. */
struct MetricInfo
{
    MetricId id;
    MetricKind kind;
    const char* name; ///< Dotted wire name ("detector.rounds").
    MetricClass cls;
    bool perShard;    ///< Snapshot keeps the per-shard breakdown.
    double lo = 0.0;  ///< Histogram range (clamped at the edges).
    double hi = 0.0;
    uint32_t bins = 0;
    const char* help;
};

/** Descriptor of a metric id (O(1) table lookup). */
const MetricInfo& metricInfo(MetricId id);

/** Snapshot of one counter. */
struct CounterSnapshot
{
    MetricId id;
    uint64_t value = 0;
    /** Per-shard values, shard-creation order; only for perShard ids. */
    std::vector<uint64_t> perShard;
};

/** Snapshot of one gauge (max-tracking). */
struct GaugeSnapshot
{
    MetricId id;
    double value = 0.0;
    bool everSet = false;
};

/** Snapshot of one fixed-bucket histogram. */
struct HistogramSnapshot
{
    MetricId id;
    uint64_t count = 0; ///< Total samples (== sum of buckets).
    double sum = 0.0;   ///< Sum of sample values (see MetricClass note).
    std::vector<uint64_t> buckets;

    double mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
    /** Center value of bucket `b` under the metric's (lo, hi) range. */
    double binCenter(size_t b) const;
    /**
     * Value at percentile `p` (in [0, 100], clamped), reconstructed
     * from the bucket counts with linear interpolation inside the
     * bucket that crosses the rank. Resolution is the bucket width;
     * samples clamped into the edge buckets resolve to edge-bucket
     * positions. Edge sentinels: an empty histogram returns NaN
     * (rendered as null in JSON), p <= 0 returns the low edge of the
     * first occupied bucket and p >= 100 the high edge of the last
     * occupied bucket. Deterministic for Sim-class metrics (depends
     * only on the bit-exact bucket counts).
     */
    double percentile(double p) const;
};

/**
 * The rank walk behind HistogramSnapshot::percentile and
 * QuantileSketch::percentile, which differ only in their bucket edges:
 * where percentile `p` (clamped to [0, 100]) of `count` samples falls
 * among `n` buckets. Returns false when `count` is 0. Otherwise sets
 * *bucket and *within, the position inside that bucket from 0 (its low
 * edge) to 1 (its high edge): p <= 0 gives the low edge of the first
 * occupied bucket, p >= 100 the high edge of the last, and any other p
 * the linear position of its rank inside the bucket that crosses it.
 */
bool percentileRank(const uint64_t* buckets, size_t n, uint64_t count,
                    double p, size_t* bucket, double* within);

/** A merged, point-in-time view of every metric. */
struct Snapshot
{
    std::vector<CounterSnapshot> counters;     ///< Catalog order.
    std::vector<GaugeSnapshot> gauges;         ///< Catalog order.
    std::vector<HistogramSnapshot> histograms; ///< Catalog order.
    size_t shards = 0;

    const CounterSnapshot& counter(MetricId id) const;
    const GaugeSnapshot& gauge(MetricId id) const;
    const HistogramSnapshot& histogram(MetricId id) const;
};

/**
 * Lock-free metrics registry: counters, max-gauges and fixed-bucket
 * histograms accumulated into per-thread shards, merged on snapshot().
 *
 * Recording discipline mirrors the recommender's per-thread
 * QueryScratch: each thread owns a shard that only it writes (shard
 * cells are relaxed atomics so snapshot() may read them concurrently),
 * so the record path after a thread's first touch is
 *
 *     relaxed enabled? load -> thread-local shard -> relaxed load+store
 *
 * with no locks and no contention. A thread's first record takes the
 * registry mutex once to create (or re-find) its shard. Gauges are
 * registry-global CAS maxima — they are rare writes.
 *
 * Disabled (the default), every record call is one relaxed load and a
 * branch; nothing else runs. Enabling/disabling never changes any
 * computation in the library — observability observes, it does not
 * perturb — which the determinism tests and, end to end through
 * bolt_cli, BoltCli.ObservabilityFlagsNeverChangeStdout enforce.
 *
 * Thread-safety: all record calls, snapshot() and enabled() may be
 * used concurrently. reset() and setEnabled() must not race with
 * record calls that are in flight (call them between parallel phases).
 * snapshot() taken while recorders are mid-phase is a consistent read
 * of each cell but not an atomic cut across metrics.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** The process-wide registry every instrumentation site records to. */
    static MetricsRegistry& global();

    /** Turn recording on/off. Off (default) drops every record call. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Increment a counter by n. */
    void add(MetricId id, uint64_t n = 1)
    {
        if (enabled())
            addSlow(id, n);
    }

    /** Record one histogram sample (clamped to the edge buckets). */
    void observe(MetricId id, double value)
    {
        if (enabled())
            observeSlow(id, value);
    }

    /** Raise a max-gauge to `value` if it is the new high-water mark. */
    void gaugeMax(MetricId id, double value)
    {
        if (enabled())
            gaugeMaxSlow(id, value);
    }

    /** Merge every shard into one Snapshot (counters in catalog order). */
    Snapshot snapshot() const;

    /** Zero all shards and gauges. Not safe against in-flight records. */
    void reset();

  private:
    struct Shard;

    void addSlow(MetricId id, uint64_t n);
    void observeSlow(MetricId id, double value);
    void gaugeMaxSlow(MetricId id, double value);

    std::atomic<bool> enabled_{false};
    ThreadShards<Shard> shards_;

    std::atomic<double> gauges_[kNumGauges == 0 ? 1 : kNumGauges];
    std::atomic<bool> gaugeSet_[kNumGauges == 0 ? 1 : kNumGauges];
};

} // namespace obs
} // namespace bolt

#endif // BOLT_OBS_METRICS_H
