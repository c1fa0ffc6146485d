#include "attacker.h"

#include <algorithm>

#include "attacks/coresidency.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/seeds.h"

namespace bolt {
namespace colo {

namespace {

/// vCPUs of one probe VM.
constexpr int kProbeVcpus = 2;

bool
contains(const std::vector<size_t>& v, size_t x)
{
    return std::find(v.begin(), v.end(), x) != v.end();
}

} // namespace

CoResidencyOracle::CoResidencyOracle(const sim::Cluster& cluster,
                                     const workloads::AppSpec& victimSpec,
                                     sim::TenantId victimId, uint64_t seed)
    : cluster_(cluster), victimSpec_(victimSpec), victimId_(victimId),
      seed_(seed), contention_(cluster.isolation()),
      victimInstance_(victimSpec,
                      util::Rng(util::seeds::derivedSeed(
                          seed, util::seeds::kColoOracle, 0)))
{
    // Noise-free baseline: per-check lognormal(1.0, 0.04) jitter can
    // never push an un-slowed measurement past baseline x threshold,
    // so the oracle has no false positives and the campaign digest is
    // a pure function of true co-residency.
    baseline_ = victimInstance_.meanLatencyMs(1.0);
}

bool
CoResidencyOracle::confirm(size_t probeHost)
{
    util::Rng rng =
        util::Rng::stream(seed_, {util::seeds::kColoOracle, 1, checks_});
    ++checks_;
    obs::MetricsRegistry::global().add(obs::MetricId::kColoOracleChecks);

    double latency = attacks::receiverLatencyMs(
        victimSpec_, victimInstance_, contention_,
        cluster_.locate(victimId_) == std::optional<size_t>(probeHost), rng);
    return latency > baseline_ * attacks::kLatencyRatioThreshold;
}

CampaignResult
ColoAttacker::run(sim::Cluster& cluster, sched::PlacementPolicy& allocator,
                  CoResidencyOracle& oracle,
                  const std::function<void(double)>& onWaveEnd)
{
    auto& metrics = obs::MetricsRegistry::global();
    metrics.add(obs::MetricId::kColoCampaigns);

    CampaignResult res;
    std::vector<size_t> ruledOut;
    double t = 0.0;

    workloads::AppSpec probeSpec;
    probeSpec.family = "colo-probe";
    probeSpec.vcpus = kProbeVcpus;

    for (int wave = 0; wave < cfg_.waves && !res.pinpointed; ++wave) {
        ++res.wavesUsed;
        std::vector<std::pair<sim::TenantId, size_t>> waveProbes;

        auto commit = [&](size_t server) -> sim::TenantId {
            sim::Tenant probe{cluster.nextTenantId(), kProbeVcpus, true};
            if (!cluster.placeOn(server, probe))
                return sim::kNoTenant;
            waveProbes.emplace_back(probe.id, server);
            ++res.launches;
            t += 0.5; // launch latency
            metrics.add(obs::MetricId::kColoProbeLaunches);
            if (oracle.victimHost() == std::optional<size_t>(server))
                ++res.coResidentLaunches;
            return probe.id;
        };

        switch (cfg_.kind) {
        case AttackerKind::Replication: {
            // One replica-set request fanned across distinct hosts:
            // Spread accumulates anti-affinity, so a policy that honors
            // the fan-out covers probesPerWave fresh hosts per wave.
            sched::PlacementRequest req;
            req.spec = probeSpec;
            req.vcpus = kProbeVcpus;
            req.constraints.replicas = cfg_.probesPerWave;
            req.constraints.hint = sched::PlacementHint::Spread;
            req.constraints.avoid = ruledOut;
            sched::placeReplicaSet(allocator, cluster, req, commit);
            break;
        }
        case AttackerKind::Affinity: {
            // Game the allocator's trust in tenant constraints: ask
            // for affinity with the warmest feasible hosts — nearly
            // full hosts are the ones that just received placements,
            // so a freshly launched victim is most likely there.
            // Hardened policies ignore the hint.
            for (int p = 0; p < cfg_.probesPerWave; ++p) {
                std::vector<size_t> targets;
                for (size_t i = 0; i < cluster.size(); ++i) {
                    if (contains(ruledOut, i))
                        continue;
                    if (cluster.server(i).tenants().empty())
                        continue;
                    if (cluster.server(i).placeableSlots(
                            cluster.isolation()) < kProbeVcpus)
                        continue;
                    targets.push_back(i);
                }
                std::stable_sort(targets.begin(), targets.end(),
                                 [&](size_t a, size_t b) {
                                     return cluster.server(a).freeSlots() <
                                            cluster.server(b).freeSlots();
                                 });
                if (targets.size() > 3)
                    targets.resize(3);
                sched::PlacementRequest req;
                req.spec = probeSpec;
                req.vcpus = kProbeVcpus;
                req.constraints.avoid = ruledOut;
                req.constraints.affinity = targets;
                std::optional<size_t> host =
                    allocator.place(cluster, req);
                if (!host)
                    break;
                sim::TenantId id = commit(*host);
                if (id == sim::kNoTenant)
                    break;
                allocator.record(id, *host, probeSpec);
            }
            break;
        }
        case AttackerKind::Churn: {
            // Plain launches that re-sample the allocator's placement
            // distribution; ruled-out hosts sweep a deterministic
            // policy host by host across waves.
            for (int p = 0; p < cfg_.probesPerWave; ++p) {
                sched::PlacementRequest req;
                req.spec = probeSpec;
                req.vcpus = kProbeVcpus;
                req.constraints.avoid = ruledOut;
                std::optional<size_t> host =
                    allocator.place(cluster, req);
                if (!host)
                    break;
                sim::TenantId id = commit(*host);
                if (id == sim::kNoTenant)
                    break;
                allocator.record(id, *host, probeSpec);
            }
            break;
        }
        }

        // Oracle pass: confirm each landed probe; refuted hosts are
        // ruled out for later waves.
        sim::TenantId confirmedProbe = sim::kNoTenant;
        for (const auto& [id, host] : waveProbes) {
            t += attacks::kConfirmSec;
            ++res.oracleChecks;
            if (oracle.confirm(host)) {
                res.pinpointed = true;
                res.timeToCoResSec = t;
                confirmedProbe = id;
                metrics.add(obs::MetricId::kColoCoResidencyHits);
                break;
            }
            if (!contains(ruledOut, host))
                ruledOut.push_back(host);
        }

        // Teardown: refuted probes leave; a confirmed probe stays
        // resident beside the victim.
        for (const auto& [id, host] : waveProbes) {
            (void)host;
            if (id == confirmedProbe)
                continue;
            cluster.remove(id);
            allocator.forget(id);
        }
        if (!res.pinpointed)
            t += attacks::kFailedWaveSec;

        if (onWaveEnd)
            onWaveEnd(t);
    }

    res.elapsedSec = t;
    return res;
}

} // namespace colo
} // namespace bolt
