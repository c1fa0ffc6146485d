/**
 * @file
 * Placement arms race: play the attacker x policy x utilization
 * tournament (colo::runTournament) and the fleet-scale policy duel
 * (colo::runFleetDuel) and print the full Sim-class result tables.
 *
 * Everything on stdout is Sim-class — a pure function of the configs
 * and kSeed — so the output is byte-identical at any --threads and is
 * committed as bench/BENCH_coloc_arms_race.golden, a line of the golden
 * manifest bench/goldens.txt whose ctest entry diffs fresh runs at 1
 * and 8 threads against it. Wall timing goes to stderr.
 *
 * The binary also self-checks the arms-race acceptance gates and exits
 * 1 if any regresses:
 *
 *  - tournamentSelfCheck: both secure policies (mab, secure-opt) cut
 *    the co-residency success rate vs LeastLoaded at every swept
 *    utilization level, at bounded utilization cost and within the
 *    migration budget;
 *  - fleet duel digests at 16 shards reproduce the 1-shard digests
 *    byte for byte (placement policies live on the sequential decision
 *    plane, so sharding must never move an outcome).
 *
 * Regenerate the golden after an intentional model change with
 * scripts/check.sh --goldens --update.
 */
#include <chrono>
#include <iostream>
#include <string>

#include "driver_flags.h"
#include "colo/tournament.h"
#include "util/digest.h"
#include "util/table.h"

using namespace bolt;
using util::hex64;

namespace {

constexpr uint64_t kSeed = 42;

/** Shard-invariance self-check over the fleet duel rows. */
bool
fleetSelfCheck(const colo::FleetDuelConfig& base_cfg,
               const colo::FleetDuelResult& base)
{
    colo::FleetDuelConfig cfg = base_cfg;
    cfg.shards = 16;
    colo::FleetDuelResult sharded = colo::runFleetDuel(cfg);
    if (sharded.rows.size() != base.rows.size()) {
        std::cerr << "FAIL: fleet duel row count changed with shards\n";
        return false;
    }
    for (size_t i = 0; i < base.rows.size(); ++i) {
        if (sharded.rows[i].digest != base.rows[i].digest) {
            std::cerr << "FAIL: fleet duel row " << i << " ("
                      << colo::fleetPolicyName(base.rows[i].policy) << "@"
                      << base.rows[i].utilLevel << "%) digest "
                      << hex64(sharded.rows[i].digest)
                      << " at 16 shards != "
                      << hex64(base.rows[i].digest) << " at 1 shard\n";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    if (!bench::parseDriverFlags(argc, argv))
        return 2;

    colo::TournamentConfig tcfg;
    tcfg.seed = kSeed;

    auto t0 = std::chrono::steady_clock::now();
    colo::TournamentResult tournament = colo::runTournament(tcfg);
    double wall_t = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    std::cout << "== placement tournament (" << tcfg.servers
              << " servers, reps=" << tcfg.reps << ", seed=" << tcfg.seed
              << ") ==\n";
    colo::printTournament(tournament, std::cout);
    std::cout << "tournament digest: " << hex64(tournament.digest)
              << "\n\n";

    colo::FleetDuelConfig fcfg;
    fcfg.seed = kSeed;

    auto t1 = std::chrono::steady_clock::now();
    colo::FleetDuelResult duel = colo::runFleetDuel(fcfg);
    double wall_f = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t1)
                        .count();

    std::cout << "== fleet duel (" << fcfg.hosts << " hosts, "
              << fcfg.epochs << " epochs, " << fcfg.probes
              << " what-if probes, seed=" << fcfg.seed << ") ==\n";
    colo::printFleetDuel(duel, std::cout);
    std::cout << "fleet duel digest: " << hex64(duel.digest) << "\n";

    std::cerr << "(Wall-class, not part of the golden) tournament: "
              << util::AsciiTable::num(wall_t, 3) << " s, fleet duel: "
              << util::AsciiTable::num(wall_f, 3) << " s\n";

    std::string violation = colo::tournamentSelfCheck(tcfg, tournament);
    if (!violation.empty()) {
        std::cerr << "FAIL: arms-race gate: " << violation << "\n";
        return 1;
    }
    if (!fleetSelfCheck(fcfg, duel))
        return 1;
    return 0;
}
