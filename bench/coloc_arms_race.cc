/**
 * @file
 * Placement arms race: play the attacker x policy x utilization
 * tournament (colo::runTournament) and print its Sim-class result
 * table.
 *
 * Everything on stdout is Sim-class — a pure function of the config
 * and kSeed — so the output is byte-identical at any --threads and is
 * committed as bench/BENCH_coloc_arms_race.golden, a line of the golden
 * manifest bench/goldens.txt whose ctest entry diffs fresh runs at 1
 * and 8 threads against it. Wall timing goes to stderr.
 *
 * The binary also self-checks the arms-race acceptance gates
 * (tournamentSelfCheck) and exits 1 if any regresses: both secure
 * policies (mab, secure-opt) cut the co-residency success rate vs
 * LeastLoaded at every swept utilization level, at bounded utilization
 * cost and within the migration budget.
 *
 * Regenerate the golden after an intentional model change with
 * scripts/check.sh --goldens --update.
 */
#include <chrono>
#include <iostream>
#include <string>

#include "colo/tournament.h"
#include "util/cli_flags.h"
#include "util/digest.h"
#include "util/table.h"

using namespace bolt;
using util::hex64;

namespace {

constexpr uint64_t kSeed = 42;

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }

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
              << "\n";

    std::cerr << "(Wall-class, not part of the golden) tournament: "
              << util::AsciiTable::num(wall_t, 3) << " s\n";

    std::string violation = colo::tournamentSelfCheck(tcfg, tournament);
    if (!violation.empty()) {
        std::cerr << "FAIL: arms-race gate: " << violation << "\n";
        return 1;
    }
    return 0;
}
