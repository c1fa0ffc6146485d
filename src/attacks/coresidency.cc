#include "coresidency.h"

#include <algorithm>
#include <cmath>

#include "attacks/dos.h"
#include "sim/cluster.h"
#include "workloads/generators.h"

namespace bolt {
namespace attacks {

double
receiverLatencyMs(const workloads::AppSpec& target,
                  const workloads::AppInstance& instance,
                  const sim::ContentionModel& contention, bool coResident,
                  util::Rng& rng)
{
    double slowdown = 1.0;
    if (coResident) {
        sim::ResourceVector own =
            workloads::scaledPressure(target.base, target.pattern.level);
        slowdown = contention.slowdown(
            own, target.sensitivity, DosAttack::craftContention(own, 2, 1.2));
    }
    return instance.meanLatencyMs(slowdown) * rng.lognormal(1.0, 0.04);
}

CoResidencyResult
CoResidencyAttack::run() const
{
    util::Rng rng(config_.seed);
    CoResidencyResult result;

    result.placementProbability =
        1.0 - std::pow(1.0 - 1.0 / static_cast<double>(config_.servers),
                       static_cast<double>(config_.probeVms));

    // --- Populate the cluster -------------------------------------------------
    sim::Cluster cluster(config_.servers);
    util::Rng place_rng = rng.substream("placement");
    sched::LeastLoadedScheduler scheduler;

    struct PlacedApp
    {
        sim::TenantId id;
        size_t server;
        workloads::AppSpec spec;
        bool isTargetVictim;
    };
    std::vector<PlacedApp> apps;
    std::map<sim::TenantId, workloads::AppInstance> instances;

    auto place_app = [&](const workloads::AppSpec& spec,
                         bool is_victim) -> bool {
        auto choice = scheduler.pick(cluster, spec, spec.vcpus);
        if (!choice)
            return false;
        sim::Tenant t{cluster.nextTenantId(), spec.vcpus, false};
        if (!cluster.placeOn(*choice, t))
            return false;
        scheduler.record(t.id, *choice, spec);
        apps.push_back({t.id, *choice, spec, is_victim});
        instances.emplace(
            t.id, workloads::AppInstance(
                      spec, place_rng.substream("inst", t.id)));
        return true;
    };

    const auto* sql = workloads::findFamily("mysql");
    // The target user's SQL server.
    auto victim_spec =
        workloads::instantiate(*sql, sql->variants[0], "M", place_rng);
    victim_spec.pattern = workloads::LoadPattern::constant(0.85);
    place_app(victim_spec, true);
    // Seven other tenants run SQL servers too (the confusion set).
    for (size_t i = 0; i < kDecoySqlVms; ++i) {
        auto decoy =
            workloads::instantiate(*sql, sql->variants[0],
                                   place_rng.bernoulli(0.5) ? "S" : "L",
                                   place_rng);
        decoy.pattern = workloads::LoadPattern::constant(
            place_rng.uniform(0.7, 1.0));
        place_app(decoy, false);
    }
    // Background: key-value stores, Hadoop and Spark jobs.
    util::Rng bg_rng = rng.substream("background");
    auto background =
        workloads::controlledTestSet(bg_rng, config_.backgroundVms);
    for (const auto& spec : background)
        place_app(spec, false);

    // --- Phase 1: simultaneous probe launch + Bolt detection -----------------
    util::Rng train_rng = rng.substream("training");
    auto train_specs = workloads::trainingSet(train_rng);
    auto training = core::TrainingSet::fromSpecs(train_specs, train_rng);
    core::HybridRecommender recommender(training);
    core::Detector detector(recommender);

    sched::RandomScheduler probe_scheduler(rng.substream("probes").seed());
    sim::ContentionModel contention(cluster.isolation());
    util::Rng detect_rng = rng.substream("detect");

    workloads::AppSpec probe_spec; // placement sizing only
    probe_spec.vcpus = 4;

    double elapsed = 0.0;
    std::vector<size_t> probed_hosts;
    std::vector<size_t> candidate_hosts;
    size_t victim_host = cluster.locate(apps.front().id).value();

    workloads::AppInstance victim_instance(victim_spec,
                                           rng.substream("victim-inst"));
    util::Rng chan_rng = rng.substream("channel");
    result.baselineLatencyMs = victim_instance.meanLatencyMs(1.0) *
                               chan_rng.lognormal(1.0, 0.04);
    result.adversaryVmsUsed = 1; // the external receiver

    // Waves of simultaneous probe launches: a wave whose candidates all
    // fail sender/receiver confirmation is torn down and a fresh wave
    // lands on different hosts. One probe wave usually suffices once a
    // probe lands next to the victim; the wave count is what the
    // a-priori placement probability predicts.
    for (size_t wave = 0;
         wave < config_.maxWaves && !result.victimPinpointed; ++wave) {
        ++result.wavesUsed;
        candidate_hosts.clear();
        std::vector<sim::TenantId> wave_probes;
    for (size_t p = 0; p < config_.probeVms; ++p) {
        auto host = probe_scheduler.pick(cluster, probe_spec, 4);
        if (!host)
            continue;
        sim::Tenant probe{cluster.nextTenantId(), 4, true};
        if (!cluster.placeOn(*host, probe))
            continue;
        probed_hosts.push_back(*host);
        wave_probes.push_back(probe.id);
        result.adversaryVmsUsed++;
        if (*host == victim_host)
            result.probeCoResident = true;

        core::HostEnvironment env;
        env.server = &cluster.server(*host);
        env.adversary = probe.id;
        env.contention = &contention;
        env.pressureAt = [&, host](double t) {
            sim::PressureMap pm;
            for (const auto& a : apps)
                if (a.server == *host)
                    pm[a.id] = instances.at(a.id).pressureAt(t);
            return pm;
        };
        auto round = detector.detectOnce(
            env, elapsed, detect_rng, nullptr,
            static_cast<int>(wave * config_.probeVms + p));
        elapsed = std::max(elapsed, round.profilingSec);

        for (const auto& g : round.guesses) {
            // Database-class guesses select the host for the slower
            // sender/receiver confirmation (the paper detected 3 "SQL"
            // VMs in its sample; near-identical services confuse too).
            if (g.classLabel.rfind("mysql", 0) == 0 ||
                g.classLabel.rfind("postgres", 0) == 0 ||
                g.classLabel.rfind("mongoDB", 0) == 0) {
                candidate_hosts.push_back(*host);
                break;
            }
        }
    }
    // Bolt's flagging *prioritizes* the sender/receiver confirmation;
    // hosts it did not flag are still appended as a slower fallback so
    // a missed detection cannot hide a co-resident probe. This is the
    // paper's cost argument: with good detection the victim confirms in
    // a couple of probes, without it the adversary pays for the sweep.
    {
        std::vector<size_t> wave_hosts(
            probed_hosts.end() - static_cast<long>(wave_probes.size()),
            probed_hosts.end());
        for (size_t host : wave_hosts) {
            if (std::find(candidate_hosts.begin(), candidate_hosts.end(),
                          host) == candidate_hosts.end()) {
                candidate_hosts.push_back(host);
                elapsed += 1.0; // un-flagged hosts need longer sampling
            }
        }
    }
    result.candidateHosts =
        std::max(result.candidateHosts, candidate_hosts.size());

    // --- Phase 2: sender/receiver confirmation ---------------------------
    // The external receiver times SQL queries against the *target*
    // (reachable over its public endpoint); the sender on each candidate
    // host injects contention in the service's sensitive resources.
    // Only when sender and target are co-resident do the queries slow
    // down.
    for (size_t host : candidate_hosts) {
        double latency =
            receiverLatencyMs(victim_spec, victim_instance, contention,
                              host == victim_host, chan_rng);
        elapsed += kConfirmSec;
        if (latency >
            result.baselineLatencyMs * kLatencyRatioThreshold) {
            result.attackLatencyMs = latency;
            result.victimPinpointed = true;
            break;
        }
    }

    // Unsuccessful wave: tear the probes down and relaunch.
    if (!result.victimPinpointed) {
        for (sim::TenantId id : wave_probes)
            cluster.remove(id);
        elapsed += kFailedWaveSec;
    }
    } // wave loop

    if (!result.victimPinpointed)
        result.attackLatencyMs = result.baselineLatencyMs;
    result.detectionTimeSec = elapsed;
    return result;
}

} // namespace attacks
} // namespace bolt
