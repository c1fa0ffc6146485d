#ifndef BOLT_CORE_EXPERIMENT_H
#define BOLT_CORE_EXPERIMENT_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "util/enum_keys.h"
#include "workloads/generators.h"

namespace bolt {
namespace core {

/**
 * Victim placement policies of the controlled experiment:
 *
 *   X(Sym, "key")
 */
#define BOLT_EXPERIMENT_POLICY_CATALOG(X)                                      \
    X(LeastLoaded, "least-loaded")                                             \
    X(Quasar, "quasar")

/**
 * Configuration of the controlled detection experiment (Section 3.4):
 * a 40-server virtualized cluster, an adversarial VM per host, and 108
 * victim workloads placed by a least-loaded or Quasar-style scheduler.
 *
 * Counts are dimensionless; pressures elsewhere are percentage points
 * in [0, 100]; times are virtual seconds.
 */
struct ExperimentConfig
{
    size_t servers = 40;
    int coresPerServer = 8;
    int threadsPerCore = 2;
    size_t victims = 108;
    size_t trainingApps = 120;
    int adversaryVcpus = 4;
    int maxVictimsPerServer = 5;

    enum class Policy { BOLT_EXPERIMENT_POLICY_CATALOG(BOLT_ENUMERATOR) };
    Policy policy = Policy::LeastLoaded;

    sim::IsolationConfig isolation; ///< Defaults: plain VMs, no extras.
    DetectorConfig detector;
    RecommenderConfig recommender;
    /**
     * Pattern-obfuscation amplitude applied to every victim (defense
     * extension; 0 = the paper's friendly-VM assumption).
     */
    double victimObfuscation = 0.0;
    /**
     * Fault-injection plan (src/fault). When no rate is enabled the
     * experiment does not attach a fault oracle at all and the run is
     * bit-identical to one predating the fault layer.
     */
    fault::FaultPlan faults;
    uint64_t seed = 1;
};

#define BOLT_EXPERIMENT_POLICY_KEY(Sym, Key)                                   \
    {ExperimentConfig::Policy::Sym, Key},
inline constexpr util::EnumKey<ExperimentConfig::Policy> kPolicyKeys[] = {
    BOLT_EXPERIMENT_POLICY_CATALOG(BOLT_EXPERIMENT_POLICY_KEY)};
#undef BOLT_EXPERIMENT_POLICY_KEY

/** Per-victim outcome of the experiment. */
struct VictimOutcome
{
    workloads::AppSpec spec;
    size_t server = 0;
    int coResidents = 1;      ///< Victims on the host (incl. itself).
    sim::Resource dominant = sim::Resource::CPU;

    bool classCorrect = false; ///< Framework+algorithm identified.
    bool charCorrect = false;  ///< Dominant resource identified.
    int iterations = 0;        ///< Rounds until identification (0 = never).
    /**
     * The victim departed mid-detection (fault-injected tenant churn).
     * Departed victims still count toward accuracy denominators — churn
     * is supposed to *cost* accuracy — but a pre-departure correct
     * identification stands.
     */
    bool departed = false;
    int departedRound = 0; ///< Round before which it left (0 = stayed).
};

/** Aggregated result with the query helpers the figures need. */
struct ExperimentResult
{
    std::vector<VictimOutcome> outcomes;
    /**
     * Sim seconds the detection phase spans: the latest end of any
     * host's last profiling round. Not part of digest().
     */
    double simSeconds = 0.0;

    /** Class-level detection accuracy over all victims (Table 1). */
    double aggregateAccuracy() const;
    /** Resource-characteristics accuracy (Fig. 12b-style). */
    double characteristicsAccuracy() const;
    /** Accuracy over victims whose family reports under `table1_class`. */
    double accuracyForClass(const std::string& table1_class) const;
    /** Accuracy keyed by number of co-resident victims (Fig. 6a). */
    std::map<int, double> accuracyByCoResidents() const;
    /** (accuracy, victim count) per dominant resource (Fig. 6b). */
    std::map<sim::Resource, std::pair<double, int>>
    accuracyByDominantResource() const;
    /** Fraction of *detected* victims needing exactly n rounds (Fig. 7a). */
    std::map<int, double> iterationsPdf() const;
    /** Same, restricted to hosts with `co_residents` victims (Fig. 7b). */
    std::map<int, double> iterationsPdf(int co_residents) const;
    /**
     * (accuracy, count) per 20-point pressure bin on resource `r`, keyed
     * by bin lower edge; pressure 100 falls in the 80-100 bin (Fig. 9).
     */
    std::map<int, std::pair<double, int>>
    accuracyByPressure(sim::Resource r) const;
    /** Victims that departed mid-detection (0 without fault churn). */
    size_t departedCount() const;
    /**
     * FNV-1a fingerprint of every outcome (victim class label, server,
     * co-residents, dominant resource, correctness flags, iteration
     * count, churn fate) in order. Bit-identical across thread counts
     * and across observability on/off, which the Determinism suite and
     * the BoltCli observability case check.
     */
    uint64_t digest() const;
};

/**
 * Drives the controlled experiment end to end: builds the training set
 * and recommender, provisions the cluster, schedules victims, and runs
 * iterative detection from every host's adversarial VM, stopping per
 * victim on correct identification (the paper's protocol).
 *
 * Parallelism: training and placement are sequential (the scheduler is
 * stateful); the per-host detection phase fans out on
 * util::parallelFor, one chunk per server.
 *
 * Thread-safety: a ControlledExperiment instance is not itself safe to
 * share across threads (run() populates victims_), but any number of
 * instances may run() concurrently. One run() uses every pool thread;
 * a run() started while another's hosts are in flight runs its own
 * hosts inline on its thread.
 */
class ControlledExperiment
{
  public:
    explicit ControlledExperiment(ExperimentConfig config);

    /**
     * Run the full experiment.
     *
     * Deterministic for a given config: every stochastic stage draws
     * from a counter-based RNG stream keyed by (seed, phase, server id,
     * victim id), so the result — including outcome order — is
     * bit-identical regardless of ThreadPool::globalThreads().
     */
    ExperimentResult run();

    /** The victim specs scheduled in the last run (for inspection). */
    const std::vector<workloads::AppSpec>& victims() const
    {
        return victims_;
    }

  private:
    ExperimentConfig config_;
    std::vector<workloads::AppSpec> victims_;
};

/**
 * Scoring helper shared with the user study: whether a detection round
 * identifies the victim's class / characteristics.
 */
bool roundMatchesClass(const DetectionRound& round,
                       const workloads::AppSpec& victim);
bool roundMatchesCharacteristics(const DetectionRound& round,
                                 const workloads::AppSpec& victim);

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_EXPERIMENT_H
