#ifndef BOLT_COLO_ATTACKER_H
#define BOLT_COLO_ATTACKER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sched/policy.h"
#include "sim/cluster.h"
#include "sim/contention.h"
#include "util/enum_keys.h"
#include "workloads/app.h"

namespace bolt {
namespace colo {

/**
 * Attacker strategies of the placement arms race, all Repttack-style
 * constraint gaming (PAPERS.md: Repttack) on top of launch/teardown
 * probing:
 *
 *  - Replication: one replica-set request per wave with a Spread hint,
 *    fanning probes across distinct hosts to maximize coverage per
 *    wave.
 *  - Affinity: per-probe affinity requests toward the fullest feasible
 *    hosts — the warm hosts fresh placements just landed on. Policies
 *    that honor tenant affinity are steered; hardened allocators
 *    (honorsAffinity() == false) ignore the hint.
 *  - Churn: plain launch/teardown probing that re-samples the
 *    allocator's placement distribution every wave, relying on ruled-
 *    out bookkeeping to sweep a deterministic policy host by host.
 *
 *   X(Sym, "key")
 */
#define BOLT_ATTACKER_CATALOG(X)                                               \
    X(Replication, "replication")                                              \
    X(Affinity, "affinity")                                                    \
    X(Churn, "churn")

enum class AttackerKind : uint8_t { BOLT_ATTACKER_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_ATTACKER_KEY(Sym, Key) {AttackerKind::Sym, Key},
inline constexpr util::EnumKey<AttackerKind> kAttackerKeys[] = {
    BOLT_ATTACKER_CATALOG(BOLT_ATTACKER_KEY)};
#undef BOLT_ATTACKER_KEY

/** Display name of an attacker strategy (its key). */
inline const char*
attackerName(AttackerKind kind)
{
    return util::enumKey(kAttackerKeys, kind);
}

/** Knobs of one co-location campaign. */
struct AttackerConfig
{
    AttackerKind kind = AttackerKind::Replication;
    int probesPerWave = 4;
    int waves = 3;
};

/** Outcome of one campaign. */
struct CampaignResult
{
    bool pinpointed = false; ///< A probe confirmed co-residency.
    int wavesUsed = 0;
    uint64_t launches = 0;           ///< Probe VMs actually placed.
    uint64_t coResidentLaunches = 0; ///< Probes that landed beside the victim.
    uint64_t oracleChecks = 0;
    double timeToCoResSec = 0.0; ///< Campaign clock at confirmation.
    double elapsedSec = 0.0;     ///< Total campaign clock.
};

/**
 * The attacker's ground-truth feedback channel, distilled from the
 * sender/receiver confirmation of attacks::CoResidencyAttack phase 2:
 * the sender on a probed host saturates the victim's two most
 * sensitive resources while an external receiver times the victim's
 * public endpoint; only a co-resident sender slows the victim down.
 *
 * The victim is located live through cluster.locate() at every check,
 * so a defense migration between waves genuinely invalidates the
 * attacker's knowledge. Draws come from
 * Rng::stream(seed, {kColoOracle, check}).
 */
class CoResidencyOracle
{
  public:
    CoResidencyOracle(const sim::Cluster& cluster,
                      const workloads::AppSpec& victimSpec,
                      sim::TenantId victimId, uint64_t seed);

    /**
     * Sender/receiver confirmation against `probeHost`. @return true
     * when the timed latency exceeds baseline x
     * attacks::kLatencyRatioThreshold, i.e. the probe host currently
     * holds the victim.
     */
    bool confirm(size_t probeHost);

    /** Victim's current host (it migrates under reactive defenses). */
    std::optional<size_t> victimHost() const
    {
        return cluster_.locate(victimId_);
    }

    uint64_t checks() const { return checks_; }

  private:
    const sim::Cluster& cluster_;
    workloads::AppSpec victimSpec_;
    sim::TenantId victimId_;
    uint64_t seed_;
    sim::ContentionModel contention_;
    workloads::AppInstance victimInstance_;
    double baseline_ = 0.0;
    uint64_t checks_ = 0;
};

/**
 * Deterministic co-location campaign agent: waves of probe launches
 * against a target allocator, oracle confirmation per landed probe,
 * teardown of refuted probes, and ruled-out host bookkeeping carried
 * across waves. Each confirmation and each failed wave costs what it
 * costs attacks::CoResidencyAttack (attacks::kConfirmSec,
 * attacks::kFailedWaveSec); each launch also costs 0.5 s, which the
 * §5.3 attack does not charge.
 */
class ColoAttacker
{
  public:
    ColoAttacker(const AttackerConfig& cfg, uint64_t seed)
        : cfg_(cfg), seed_(seed)
    {
    }

    /**
     * Run the campaign against `cluster` whose placements `allocator`
     * controls. `onWaveEnd(t)` fires after each wave's teardown with
     * the campaign clock — the hook reactive defenses (e.g.
     * SecureAllocator::reactiveStep) attach to.
     */
    CampaignResult
    run(sim::Cluster& cluster, sched::PlacementPolicy& allocator,
        CoResidencyOracle& oracle,
        const std::function<void(double)>& onWaveEnd = {});

  private:
    AttackerConfig cfg_;
    uint64_t seed_;
};

} // namespace colo
} // namespace bolt

#endif // BOLT_COLO_ATTACKER_H
