/**
 * @file
 * Fleet-scaling curve: run the sharded fleet simulation
 * (sim::FleetCluster) from 1k to 128k hosts (8 VMs per host at boot,
 * so the top point churns a ~1M-VM fleet) and print, per scale, the
 * end-of-run Sim-class fleet statistics and outcome digest.
 *
 * Everything on stdout is Sim-class — a pure function of the per-row
 * (hosts, tenants, shards, epochs, seed) config — so the full output
 * is byte-identical at any --threads and is committed as
 * bench/BENCH_fleet_scaling.golden, a line of the golden manifest
 * bench/goldens.txt whose ctest entry diffs fresh runs at 1 and 8
 * threads against it. The hosts-vs-wall-seconds curve (the thing this
 * bench exists to measure) goes to stderr: wall-clock is Wall-class,
 * not part of the golden.
 *
 * The binary also self-checks the tentpole determinism property and
 * exits 1 if it regresses: at the 4k-host scale, a 16-shard run on an
 * 8-thread pool must reproduce the 1-shard/1-thread digest byte for
 * byte (shards and threads partition work, never outcomes).
 *
 * Regenerate the golden after an intentional fleet-model change with
 * scripts/check.sh --goldens --update.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "sim/shard.h"
#include "util/cli_flags.h"
#include "util/digest.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bolt;
using util::hex64;

namespace {

constexpr uint64_t kSeed = 2017;
constexpr int kEpochs = 4;
const size_t kHostScales[] = {1000, 4000, 16000, 64000, 128000};

/** The fleet config at a given host scale (8 VMs per host at boot). */
sim::FleetConfig
fleetAt(size_t hosts)
{
    sim::FleetConfig cfg;
    cfg.hosts = hosts;
    cfg.tenants = hosts * 8;
    // One shard per ~512 hosts keeps shards coarse enough to amortize
    // task dispatch yet plentiful enough to feed a wide pool.
    cfg.shards = std::max<size_t>(1, hosts / 512);
    cfg.epochs = kEpochs;
    cfg.arrivalsPerHostEpoch = 0.3;
    cfg.departureProb = 0.05;
    cfg.migrationProb = 0.03;
    cfg.hostFaultProb = 0.01;
    cfg.seed = kSeed;
    return cfg;
}

/** Digest-invariance self-check at the 4k-host scale. */
bool
selfCheck()
{
    sim::FleetConfig cfg = fleetAt(4000);
    unsigned restore = util::ThreadPool::globalThreads();

    cfg.shards = 1;
    util::ThreadPool::setGlobalThreads(1);
    sim::FleetResult base = sim::FleetCluster(cfg).run();

    cfg.shards = 16;
    util::ThreadPool::setGlobalThreads(8);
    sim::FleetResult sharded = sim::FleetCluster(cfg).run();

    util::ThreadPool::setGlobalThreads(restore);
    if (sharded.digest != base.digest) {
        std::cerr << "FAIL: 16-shard/8-thread digest "
                  << hex64(sharded.digest)
                  << " != 1-shard/1-thread digest " << hex64(base.digest)
                  << " at 4000 hosts\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }

    util::AsciiTable table({"Hosts", "Shards", "Booted", "Alive",
                            "Arrive", "Depart", "Migrate", "Faults",
                            "Util", "Digest"});
    util::Fnv1a combined;
    for (size_t hosts : kHostScales) {
        sim::FleetConfig cfg = fleetAt(hosts);
        auto t0 = std::chrono::steady_clock::now();
        sim::FleetResult r = sim::FleetCluster(cfg).run();
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        double util = r.epochs.empty() ? 0.0 : r.epochs.back().meanUtil;
        table.addRow({std::to_string(hosts), std::to_string(cfg.shards),
                      std::to_string(r.vmsBooted),
                      std::to_string(r.vmsAlive),
                      std::to_string(r.arrivals),
                      std::to_string(r.departures),
                      std::to_string(r.migrations),
                      std::to_string(r.hostFaults),
                      util::AsciiTable::num(util, 1) + "%",
                      hex64(r.digest)});
        combined.u64(hosts);
        combined.u64(r.digest);
        std::cerr << "(Wall-class, not part of the golden) " << hosts
                  << " hosts: " << util::AsciiTable::num(wall, 3)
                  << " s wall, "
                  << util::AsciiTable::num(
                         wall > 0.0
                             ? static_cast<double>(hosts) * kEpochs / wall
                             : 0.0,
                         0)
                  << " host-epochs/s\n";
    }
    table.print(std::cout);
    std::cout << "combined digest: " << hex64(combined.h) << "\n";

    if (!selfCheck())
        return 1;
    return 0;
}
