#include "experiment.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/digest.h"
#include "util/seeds.h"
#include "util/thread_pool.h"

namespace bolt {
namespace core {

namespace {

// Every stochastic task that may run on a pool thread draws from
// Rng::stream(seed, {phase, ...}) with coordinates that identify the
// task (server id, victim tenant id), never from a stream another task
// also draws from — this is what keeps results bit-identical at any
// thread count. The sequential phases (training-set construction,
// victim generation, placement) keep the root substream derivation,
// which is likewise a pure function of the seed.
using util::seeds::kExperimentDetect;
using util::seeds::kExperimentInstance;
using util::seeds::kExperimentNeighborInstance;

/**
 * Tenant-id base for fault-injected background arrivals: far above any
 * id Cluster::nextTenantId ever allocates, so neighbor ids collide with
 * nothing and are themselves a pure function of (server, arrival order).
 */
constexpr sim::TenantId kNeighborIdBase = sim::TenantId{1} << 32;

} // namespace

double
ExperimentResult::aggregateAccuracy() const
{
    if (outcomes.empty())
        return 0.0;
    size_t correct = 0;
    for (const auto& o : outcomes)
        correct += o.classCorrect ? 1 : 0;
    return static_cast<double>(correct) /
           static_cast<double>(outcomes.size());
}

double
ExperimentResult::characteristicsAccuracy() const
{
    if (outcomes.empty())
        return 0.0;
    size_t correct = 0;
    for (const auto& o : outcomes)
        correct += o.charCorrect ? 1 : 0;
    return static_cast<double>(correct) /
           static_cast<double>(outcomes.size());
}

double
ExperimentResult::accuracyForClass(const std::string& table1_class) const
{
    size_t total = 0, correct = 0;
    for (const auto& o : outcomes) {
        const auto* fam = workloads::findFamily(o.spec.family);
        if (!fam || fam->table1Class != table1_class)
            continue;
        ++total;
        correct += o.classCorrect ? 1 : 0;
    }
    return total ? static_cast<double>(correct) /
                       static_cast<double>(total)
                 : 0.0;
}

std::map<int, double>
ExperimentResult::accuracyByCoResidents() const
{
    std::map<int, std::pair<size_t, size_t>> buckets; // n -> (correct, total)
    for (const auto& o : outcomes) {
        auto& [c, t] = buckets[o.coResidents];
        ++t;
        c += o.classCorrect ? 1 : 0;
    }
    std::map<int, double> out;
    for (const auto& [n, ct] : buckets)
        out[n] = static_cast<double>(ct.first) /
                 static_cast<double>(ct.second);
    return out;
}

std::map<sim::Resource, std::pair<double, int>>
ExperimentResult::accuracyByDominantResource() const
{
    std::map<sim::Resource, std::pair<size_t, size_t>> buckets;
    for (const auto& o : outcomes) {
        auto& [c, t] = buckets[o.dominant];
        ++t;
        c += o.classCorrect ? 1 : 0;
    }
    std::map<sim::Resource, std::pair<double, int>> out;
    for (const auto& [r, ct] : buckets)
        out[r] = {static_cast<double>(ct.first) /
                      static_cast<double>(ct.second),
                  static_cast<int>(ct.second)};
    return out;
}

std::map<int, double>
ExperimentResult::iterationsPdf() const
{
    return iterationsPdf(-1);
}

std::map<int, double>
ExperimentResult::iterationsPdf(int co_residents) const
{
    std::map<int, size_t> counts;
    size_t total = 0;
    for (const auto& o : outcomes) {
        if (co_residents > 0 && o.coResidents != co_residents)
            continue;
        if (!o.classCorrect || o.iterations <= 0)
            continue;
        ++counts[o.iterations];
        ++total;
    }
    std::map<int, double> out;
    for (const auto& [n, c] : counts)
        out[n] = static_cast<double>(c) / static_cast<double>(total);
    return out;
}

uint64_t
ExperimentResult::digest() const
{
    util::Fnv1a d;
    d.u64(outcomes.size());
    for (const auto& o : outcomes) {
        d.str(o.spec.classLabel());
        d.u64(o.server);
        d.u64(static_cast<uint64_t>(o.coResidents));
        d.u64(static_cast<uint64_t>(o.dominant));
        d.u64(o.classCorrect ? 1 : 0);
        d.u64(o.charCorrect ? 1 : 0);
        d.u64(static_cast<uint64_t>(o.iterations));
        d.u64(o.departed ? 1 : 0);
        d.u64(static_cast<uint64_t>(o.departedRound));
    }
    return d.h;
}

size_t
ExperimentResult::departedCount() const
{
    size_t n = 0;
    for (const auto& o : outcomes)
        n += o.departed ? 1 : 0;
    return n;
}

std::map<int, std::pair<double, int>>
ExperimentResult::accuracyByPressure(sim::Resource r) const
{
    constexpr int kBin = 20;
    std::map<int, std::pair<size_t, size_t>> buckets;
    for (const auto& o : outcomes) {
        int lo = static_cast<int>(o.spec.base[r] / kBin) * kBin;
        lo = std::min(lo, 100 - kBin);
        auto& [c, t] = buckets[lo];
        ++t;
        c += o.classCorrect ? 1 : 0;
    }
    std::map<int, std::pair<double, int>> out;
    for (const auto& [lo, ct] : buckets)
        out[lo] = {static_cast<double>(ct.first) /
                       static_cast<double>(ct.second),
                   static_cast<int>(ct.second)};
    return out;
}

bool
roundMatchesClass(const DetectionRound& round,
                  const workloads::AppSpec& victim)
{
    // The paper's criterion (§3.4): a detection is correct when the
    // framework or service is identified together with the algorithm
    // (e.g. SVM on Hadoop) *or* the user-load characteristics (e.g.
    // read- vs write-heavy). A same-family guess whose recovered
    // profile has the victim's dominant resource satisfies the latter.
    sim::Resource truth_dominant = victim.base.dominant();
    for (const auto& g : round.guesses) {
        auto colon = g.classLabel.find(':');
        std::string family = g.classLabel.substr(0, colon);
        if (family != victim.family)
            continue;
        if (g.classLabel == victim.classLabel())
            return true;
        if (g.profile.dominant() == truth_dominant)
            return true;
    }
    return false;
}

bool
roundMatchesCharacteristics(const DetectionRound& round,
                            const workloads::AppSpec& victim)
{
    // Characteristics are right when some guess's reconstructed profile
    // has the victim's dominant resource among its top two, which is
    // what the performance attacks need (Section 5).
    sim::Resource truth = victim.base.dominant();
    for (const auto& g : round.guesses) {
        auto order = g.profile.byDecreasingPressure();
        if (order.size() >= 2 && (order[0] == truth || order[1] == truth))
            return true;
    }
    return false;
}

ControlledExperiment::ControlledExperiment(ExperimentConfig config)
    : config_(std::move(config))
{
}

ExperimentResult
ControlledExperiment::run()
{
    // Training: profile the 120-app training set offline. The adversary
    // trains on the platform it will attack (baremetal/container/VM)
    // but without the extra partitioning mechanisms the cloud may have
    // deployed — running under *stronger* isolation than trained for is
    // exactly what degrades accuracy in Section 6.
    sim::IsolationConfig channel =
        sim::IsolationConfig::none(config_.isolation.platform);
    util::Rng root(config_.seed);
    util::Rng train_rng = root.substream("training");
    auto train_specs =
        workloads::trainingSet(train_rng, config_.trainingApps);
    TrainingSet training =
        TrainingSet::fromSpecs(train_specs, train_rng, 2.0, channel);
    HybridRecommender recommender(training, config_.recommender);
    DetectorConfig detector_cfg = config_.detector;
    detector_cfg.assumedChannel = channel;
    Detector detector(recommender, detector_cfg);

    // Cluster with one adversarial VM per host.
    sim::Cluster cluster(config_.servers, config_.coresPerServer,
                         config_.threadsPerCore, config_.isolation);
    std::vector<sim::TenantId> adversaries(config_.servers);
    for (size_t s = 0; s < config_.servers; ++s) {
        sim::Tenant adv;
        adv.id = cluster.nextTenantId();
        adv.vcpus = config_.adversaryVcpus;
        adv.adversarial = true;
        cluster.placeOn(s, adv);
        adversaries[s] = adv.id;
    }

    // Victims placed by the configured policy, capped per host.
    util::Rng victim_rng = root.substream("victims");
    victims_ = workloads::controlledTestSet(victim_rng, config_.victims);
    for (auto& spec : victims_)
        spec.obfuscation = config_.victimObfuscation;

    std::unique_ptr<sched::PlacementPolicy> scheduler;
    if (config_.policy == ExperimentConfig::Policy::Quasar)
        scheduler = std::make_unique<sched::QuasarScheduler>();
    else
        scheduler = std::make_unique<sched::LeastLoadedScheduler>();

    struct PlacedVictim
    {
        sim::TenantId id;
        size_t server;
        workloads::AppSpec spec;
    };
    std::vector<PlacedVictim> placed;
    std::map<size_t, int> victims_on;
    std::map<sim::TenantId, workloads::AppInstance> instances;

    auto& metrics = obs::MetricsRegistry::global();
    for (const auto& spec : victims_) {
        auto choice = scheduler->pick(cluster, spec, spec.vcpus);
        // Respect the per-host victim cap; fall back over hosts in
        // least-loaded order when the policy's pick is full.
        auto fits = [&](size_t s) {
            return victims_on[s] < config_.maxVictimsPerServer &&
                   cluster.server(s).placeableSlots(
                       cluster.isolation()) >= spec.vcpus;
        };
        if (!choice || !fits(*choice)) {
            metrics.add(obs::MetricId::kSchedPickFallbacks);
            choice.reset();
            for (size_t s = 0; s < cluster.size(); ++s) {
                if (fits(s) && (!choice ||
                                cluster.server(s).freeSlots() >
                                    cluster.server(*choice).freeSlots())) {
                    choice = s;
                }
            }
        }
        if (!choice) {
            metrics.add(obs::MetricId::kSchedPlacementFailures);
            BOLT_LOG_WARN("cluster full: victim " << spec.classLabel()
                                                  << " not scheduled");
            continue; // cluster full; victim not scheduled
        }
        sim::Tenant t;
        t.id = cluster.nextTenantId();
        t.vcpus = spec.vcpus;
        if (!cluster.placeOn(*choice, t))
            continue;
        scheduler->record(t.id, *choice, spec);
        ++victims_on[*choice];
        placed.push_back({t.id, *choice, spec});
        instances.emplace(
            t.id,
            workloads::AppInstance(
                spec, util::Rng::stream(config_.seed, {kExperimentInstance,
                                                       *choice, t.id})));
    }
    metrics.add(obs::MetricId::kExperimentVictimsScheduled, placed.size());
    BOLT_LOG_INFO("placed " << placed.size() << "/" << victims_.size()
                            << " victims on " << cluster.size()
                            << " servers");

    // Detection: each host's adversary runs iterative detection,
    // stopping per victim on correct identification. Hosts are
    // independent — the detector, recommender and contention model are
    // shared read-only, each host's AppInstances belong to it alone,
    // and every host draws from its own counter-based RNG stream — so
    // the per-server loop fans out on the global thread pool. Each
    // server writes only its own slots of `per_server` and
    // `host_end_sec`, which are then folded in server order: output is
    // byte-identical to the sequential loop at any thread count.
    sim::ContentionModel contention(config_.isolation);
    std::vector<std::vector<VictimOutcome>> per_server(cluster.size());
    std::vector<double> host_end_sec(cluster.size(), 0.0);

    // One host per chunk: hosts finish detection in uneven round counts.
    util::parallelFor(0, cluster.size(), [&](size_t s) {
        std::vector<const PlacedVictim*> here;
        for (const auto& pv : placed)
            if (pv.server == s)
                here.push_back(&pv);
        if (here.empty())
            return;

        // Fault-injected tenant churn mutates host state mid-detection.
        // Every mutation is task-local so the parallel fan-out stays
        // deterministic: a private Server copy absorbs arrivals and
        // departures (the shared cluster is never touched), `alive`
        // tracks which scored victims remain, `neighbors` holds the
        // unscored background arrivals. Without an enabled plan none of
        // this state changes and the run is bit-identical to the
        // pre-fault engine.
        const bool faults_on = config_.faults.enabled();
        sim::Server local = cluster.server(s);
        std::optional<fault::HostFaults> host_faults;
        if (faults_on)
            host_faults.emplace(config_.faults, config_.seed, s);
        std::vector<char> alive(here.size(), 1);
        std::vector<int> departed_round(here.size(), 0);
        std::vector<std::pair<sim::TenantId, workloads::AppInstance>>
            neighbors;

        HostEnvironment env;
        env.server = &local;
        env.adversary = adversaries[s];
        env.contention = &contention;
        if (host_faults)
            env.faults = &*host_faults;
        env.pressureAt = [&](double t) {
            sim::PressureMap pm;
            for (size_t v = 0; v < here.size(); ++v) {
                if (!alive[v])
                    continue;
                auto it = instances.find(here[v]->id);
                pm[here[v]->id] = it->second.pressureAt(t);
            }
            for (auto& [nid, inst] : neighbors)
                pm[nid] = inst.pressureAt(t);
            return pm;
        };

        std::map<sim::TenantId, int> found_class;
        std::map<sim::TenantId, bool> found_char;
        util::Rng host_rng =
            util::Rng::stream(config_.seed, {kExperimentDetect, s});
        double t0 = host_rng.uniform(0.0, 10.0);
        double host_end = t0;
        metrics.add(obs::MetricId::kExperimentHostsProbed);

        SparseObservation carry;
        for (int iter = 1; iter <= config_.detector.maxIterations;
             ++iter) {
            double t = t0 + (iter - 1) * kProfilingIntervalSec;
            if (host_faults) {
                // Churn lands between rounds, before the adversary
                // probes: departures first (departedRound is the first
                // round the victim is absent from), then phase flips,
                // then at most one background arrival.
                for (size_t v = 0; v < here.size(); ++v) {
                    if (!alive[v])
                        continue;
                    if (host_faults->departureAt(iter, v)) {
                        alive[v] = 0;
                        departed_round[v] = iter;
                        local.remove(here[v]->id);
                        metrics.add(
                            obs::MetricId::kFaultTenantDepartures);
                        obs::TimeSeriesRecorder::global().count(
                            obs::SeriesId::kFaultEvents, "departure", t);
                        continue;
                    }
                    double new_phase = 0.0;
                    if (host_faults->phaseFlipAt(
                            iter, v, here[v]->spec.pattern.periodSec,
                            &new_phase)) {
                        instances.find(here[v]->id)
                            ->second.setPatternPhase(new_phase);
                        metrics.add(obs::MetricId::kFaultPhaseFlips);
                        obs::TimeSeriesRecorder::global().count(
                            obs::SeriesId::kFaultEvents, "phase-flip", t);
                    }
                }
                fault::ArrivalEvent arr = host_faults->arrivalAt(iter);
                if (arr.fires) {
                    sim::Tenant neighbor;
                    neighbor.id =
                        kNeighborIdBase + s * 1024 + neighbors.size();
                    neighbor.vcpus = arr.spec.vcpus;
                    // Arrivals that no longer fit are dropped silently
                    // (the cloud placed them elsewhere).
                    if (local.place(neighbor, cluster.isolation())) {
                        neighbors.emplace_back(
                            neighbor.id,
                            workloads::AppInstance(
                                arr.spec,
                                util::Rng::stream(
                                    host_faults->faultSeed(),
                                    {kExperimentNeighborInstance, s,
                                     static_cast<uint64_t>(iter)})));
                        metrics.add(obs::MetricId::kFaultTenantArrivals);
                        obs::TimeSeriesRecorder::global().count(
                            obs::SeriesId::kFaultEvents, "arrival", t);
                    }
                }
                if (std::none_of(alive.begin(), alive.end(),
                                 [](char a) { return a != 0; }))
                    break; // every scored victim left; stop probing
            }
            // Stagger the focus-core rotation start across hosts (the
            // sequential engine's global round counter had the same
            // effect); the offset depends only on the server index, so
            // it is thread-count invariant.
            DetectionRound round = detector.detectOnce(
                env, t, host_rng,
                config_.detector.carryObservations ? &carry : nullptr,
                static_cast<int>(s) + iter - 1);
            carry = round.aggregate;
            host_end = t + round.profilingSec;
            bool all_done = true;
            for (size_t v = 0; v < here.size(); ++v) {
                const auto* pv = here[v];
                if (alive[v] && !found_class.count(pv->id) &&
                    roundMatchesClass(round, pv->spec)) {
                    found_class[pv->id] = iter;
                }
                if (alive[v] && !found_char[pv->id] &&
                    roundMatchesCharacteristics(round, pv->spec)) {
                    found_char[pv->id] = true;
                }
                all_done &= found_class.count(pv->id) > 0 || !alive[v];
            }
            if (all_done)
                break;
        }

        size_t detected = 0;
        for (size_t v = 0; v < here.size(); ++v) {
            const auto* pv = here[v];
            VictimOutcome o;
            o.spec = pv->spec;
            o.server = s;
            o.coResidents = static_cast<int>(here.size());
            o.dominant = pv->spec.base.dominant();
            auto it = found_class.find(pv->id);
            o.classCorrect = it != found_class.end();
            o.iterations = o.classCorrect ? it->second : 0;
            o.charCorrect = found_char[pv->id];
            o.departed = !alive[v];
            o.departedRound = departed_round[v];
            if (o.classCorrect) {
                ++detected;
                metrics.add(obs::MetricId::kExperimentVictimsDetected);
                metrics.observe(
                    obs::MetricId::kDetectorIterationsToConvergence,
                    static_cast<double>(o.iterations));
            }
            if (o.charCorrect)
                metrics.add(
                    obs::MetricId::kExperimentVictimsCharacterized);
            per_server[s].push_back(std::move(o));
        }
        host_end_sec[s] = host_end;
        metrics.observe(obs::MetricId::kExperimentHostSimSec,
                        host_end - t0);
        BOLT_TRACE_SPAN("experiment.host", "experiment",
                        static_cast<int64_t>(s), t0, host_end, -1,
                        {{"victims", std::to_string(here.size())},
                         {"detected", std::to_string(detected)}});
    }, 1);

    ExperimentResult result;
    for (auto& bucket : per_server)
        for (auto& o : bucket)
            result.outcomes.push_back(std::move(o));
    for (double end : host_end_sec)
        result.simSeconds = std::max(result.simSeconds, end);
    return result;
}

} // namespace core
} // namespace bolt
