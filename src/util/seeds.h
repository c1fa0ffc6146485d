#ifndef BOLT_UTIL_SEEDS_H
#define BOLT_UTIL_SEEDS_H

#include <cstdint>

#include "util/rng.h"

namespace bolt {
namespace util {
namespace seeds {

/*
 * The process-wide registry of counter-based stream phase keys.
 *
 * Every layer that fans work out derives child streams with
 * Rng::stream(root, {phase, coord...}). Keeping all phase keys in one
 * header guarantees the phases stay disjoint across subsystems (so
 * serve draws never correlate with scenario or fleet draws under a
 * shared root seed) and gives tests one place to pin them.
 *
 * The numeric values are FROZEN: committed goldens (scenario library,
 * BENCH_serving, BENCH_fleet_scaling) depend on the exact streams they
 * select. Add new phases; never renumber existing ones.
 * tests/test_util.cc pins both the keys and the derived seeds.
 */

/// Controlled experiment (src/core/experiment.cc): per-(server,
/// tenant) app instances, per-server detection rounds, and per-(server,
/// round) instances of fault-injected neighbors (under the fault seed).
constexpr uint64_t kExperimentInstance = 3;
constexpr uint64_t kExperimentDetect = 4;
constexpr uint64_t kExperimentNeighborInstance = 5;

/// Fault injection (src/fault/fault.cc), under the fault seed:
/// per-host probe-sample faults, per-(host, window) jitter, per-(host,
/// round) arrivals, per-(host, round, victim) departures and phase
/// flips. Offset well away from the experiment's phases, so a plan
/// whose seed equals the experiment seed still draws decorrelated
/// streams.
constexpr uint64_t kFaultSample = 0x0Bf0;
constexpr uint64_t kFaultJitter = 0x0Bf1;
constexpr uint64_t kFaultArrival = 0x0Bf2;
constexpr uint64_t kFaultDeparture = 0x0Bf3;
constexpr uint64_t kFaultFlip = 0x0Bf4;

/// Serving layer (src/serve/loadgen.cc): per-request arrival gaps,
/// closed-loop think times, query synthesis, service-cost draws.
constexpr uint64_t kServeArrival = 0x5E40;
constexpr uint64_t kServeThink = 0x5E41;
constexpr uint64_t kServeQuery = 0x5E42;
constexpr uint64_t kServeCost = 0x5E43;

/// Scenario runner (src/scenario/runner.cc): per-stage seeds, serve
/// ramp segments, include-stage repetitions.
constexpr uint64_t kScenarioStage = 0x5ce9a210;
constexpr uint64_t kScenarioSegment = 0x5ce9a211;
constexpr uint64_t kScenarioRepeat = 0x5ce9a212;

/// Fleet simulation (src/sim/shard.cc): boot-time VM placement draws,
/// per-(host, epoch) decision-plane churn draws, per-(host, epoch)
/// execution-plane profiling kernels.
constexpr uint64_t kFleetBoot = 0xF1EE70;
constexpr uint64_t kFleetChurn = 0xF1EE71;
constexpr uint64_t kFleetProfile = 0xF1EE72;

/// Placement layer (src/sched): the random policy's per-decision
/// draws. Keyed by the policy's own decision index so a replayed
/// decision sequence is order-independent — decision k draws the same
/// stream no matter what any other scheduler instance consumed.
constexpr uint64_t kSchedRandomPick = 0x5C4EDA;

/// Co-location arms race (src/colo): background prefill, oracle
/// channel noise, MAB exploration, secure-allocator tie-break
/// randomization, per-(cell, rep) tournament streams, and end-state
/// what-if probes on the fleet. 0xC0107E52 was per-(wave, probe)
/// attacker draws, which nothing takes any more; do not reuse it.
constexpr uint64_t kColoPrefill = 0xC0107E51;
constexpr uint64_t kColoOracle = 0xC0107E53;
constexpr uint64_t kColoMab = 0xC0107E54;
constexpr uint64_t kColoSecure = 0xC0107E55;
constexpr uint64_t kColoCell = 0xC0107E56;
constexpr uint64_t kColoProbe = 0xC0107E57;

/**
 * The derived seed for child `index` of phase `phase` under `root`.
 *
 * Pure function of its arguments (see Rng::stream), so children can be
 * seeded in any order on any thread.
 */
inline uint64_t
derivedSeed(uint64_t root, uint64_t phase, uint64_t index)
{
    return Rng::stream(root, {phase, index}).seed();
}

/**
 * Seed for child `index` of a `count`-way fan-out from `base`.
 *
 * The shared idiom of the scenario runner's segment/repeat fan-outs:
 * a fan-out of one inherits the parent seed unchanged (so wrapping a
 * run in a degenerate loop cannot change its stream), while a wider
 * fan-out derives a distinct per-index seed.
 */
inline uint64_t
fanoutSeed(uint64_t base, uint64_t phase, uint64_t count, uint64_t index)
{
    return count <= 1 ? base : derivedSeed(base, phase, index);
}

} // namespace seeds
} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_SEEDS_H
