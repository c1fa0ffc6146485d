#ifndef BOLT_COLO_TOURNAMENT_H
#define BOLT_COLO_TOURNAMENT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "colo/attacker.h"
#include "colo/policies.h"

namespace bolt {
namespace colo {

/**
 * Allocation policies entered in the tournament:
 *
 *   X(Sym, "key", "display name")
 *
 * The key is the scenario/flag spelling (`allocator:`); the display
 * name labels tournament tables and telemetry.
 */
#define BOLT_COLO_POLICY_CATALOG(X)                                            \
    X(LeastLoaded, "least-loaded", "least-loaded")                             \
    X(Quasar, "quasar", "quasar")                                              \
    X(Random, "random", "random")                                              \
    X(Mab, "mab", "mab")                                                       \
    X(Secure, "secure", "secure-opt")

enum class PolicyKind : uint8_t { BOLT_COLO_POLICY_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_COLO_POLICY_KEY(Sym, Key, Name) {PolicyKind::Sym, Key},
inline constexpr util::EnumKey<PolicyKind> kPolicyKindKeys[] = {
    BOLT_COLO_POLICY_CATALOG(BOLT_COLO_POLICY_KEY)};
#undef BOLT_COLO_POLICY_KEY

/** Display name of a tournament policy. */
const char* policyName(PolicyKind kind);

/**
 * Round-robin configuration: every attacker x policy x utilization
 * cell plays `reps` independent campaigns. All randomness derives from
 * `seed` through Rng::stream(seed, {kColoCell, cell, rep}), so the
 * result table is byte-identical at any thread count.
 */
struct TournamentConfig
{
    size_t servers = 24; ///< Hosts, each of sim::Cluster's default size.
    std::vector<double> utilLevels = {30.0, 50.0, 70.0};
    std::vector<AttackerKind> attackers = {AttackerKind::Replication,
                                           AttackerKind::Affinity,
                                           AttackerKind::Churn};
    std::vector<PolicyKind> policies = {
        PolicyKind::LeastLoaded, PolicyKind::Quasar, PolicyKind::Random,
        PolicyKind::Mab, PolicyKind::Secure};
    int reps = 8;
    int probesPerWave = 4;
    int waves = 3;
    uint64_t seed = 42;
};

/** Aggregated outcome of one attacker x policy x utilization cell. */
struct CellResult
{
    AttackerKind attacker = AttackerKind::Replication;
    PolicyKind policy = PolicyKind::LeastLoaded;
    double utilLevel = 0.0;
    int reps = 0;
    int successes = 0; ///< Campaigns that pinpointed the victim.
    uint64_t launches = 0;
    uint64_t coResEvents = 0; ///< Probe launches beside the victim.
    uint64_t oracleChecks = 0;
    uint64_t migrations = 0; ///< Reactive defense migrations.
    double meanWaves = 0.0;
    double meanTimeToCoResSec = 0.0; ///< Over successful campaigns.
    double meanUtilPct = 0.0; ///< Post-campaign slot utilization.
    double simSeconds = 0.0;  ///< Total campaign clock across reps.
    uint64_t digest = 0;      ///< Thread-invariant cell digest.
};

/** Full tournament outcome. */
struct TournamentResult
{
    std::vector<CellResult> cells;
    uint64_t digest = 0; ///< Fold of every cell digest in cell order.
};

/**
 * Play the tournament. Cells x reps fan out on the global thread pool;
 * each rep builds a fresh cluster + policy from its own seed tree and
 * writes only its own result slot, so the fold is thread-invariant.
 */
TournamentResult runTournament(const TournamentConfig& cfg);

/** Render the cell table (Sim-class output: golden-safe). */
void printTournament(const TournamentResult& result, std::ostream& os);

/**
 * Arms-race acceptance gates over a finished tournament:
 *
 *  - at every swept utilization level, BOTH secure policies (mab,
 *    secure-opt) pinpoint the victim strictly less often than
 *    LeastLoaded, summed across the attacker strategies;
 *  - per cell, the secure policies' mean utilization stays within
 *    `utilCostBoundPct` of LeastLoaded's (bounded efficiency cost);
 *  - per cell, reactive migrations stay within
 *    SecureAllocator::kMigrationBudget x reps.
 *
 * @return "" when all gates hold, else a description of the first
 * violation. Gates requiring absent policies are skipped.
 */
std::string tournamentSelfCheck(const TournamentConfig& cfg,
                                const TournamentResult& result,
                                double utilCostBoundPct = 12.0);

} // namespace colo
} // namespace bolt

#endif // BOLT_COLO_TOURNAMENT_H
