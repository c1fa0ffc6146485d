#ifndef BOLT_SIM_SHARD_H
#define BOLT_SIM_SHARD_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bolt {
namespace util {
class Rng;
}
namespace sim {

/// Sim seconds the global fleet clock advances per epoch.
inline constexpr double kFleetEpochSec = 60.0;

/**
 * Configuration of a sharded fleet simulation.
 *
 * Everything except `shards` is part of the simulated world and folds
 * into the outcome digest; `shards` (and the global thread count) only
 * choose how the work is partitioned, and FleetCluster guarantees the
 * digest is byte-identical at any shard count x thread count. Every
 * boot, arrival, migration and fault-evacuation placement is a ring
 * first-fit scan from a drawn start host.
 */
struct FleetConfig
{
    size_t hosts = 64;    ///< Physical hosts in the fleet.
    size_t tenants = 256; ///< Boot-time tenant VM count (before churn).
    size_t shards = 1;    ///< Partitions of the host range (>= 1).
    int epochs = 4;       ///< Epochs to simulate.
    int cores = 16;       ///< Physical cores per host.
    int threadsPerCore = 2; ///< Hardware threads per core.
    int maxVcpus = 2;     ///< VM sizes drawn uniformly from [1, maxVcpus].

    /// Mean VM arrivals per host per epoch (fractional part is a
    /// Bernoulli draw, so 0.2 means one arrival on ~20% of host-epochs).
    double arrivalsPerHostEpoch = 0.2;
    double departureProb = 0.04; ///< Per-VM per-epoch departure probability.
    double migrationProb = 0.02; ///< Per-VM per-epoch migration probability.
    double hostFaultProb = 0.0;  ///< Per-host per-epoch fault probability.

    uint64_t seed = 42;

    /// Run the residency-consistency audit after every epoch (tests;
    /// costs one full pass over the VM table per epoch).
    bool validateEpochs = false;
};

/** Per-epoch summary row (the CLI's epoch table and the test probes). */
struct FleetEpoch
{
    double t = 0.0;       ///< Global sim clock at the END of the epoch.
    uint64_t alive = 0;   ///< VMs resident after this epoch's churn.
    uint64_t arrivals = 0;
    uint64_t departures = 0; ///< Includes fault evictions that found no home.
    uint64_t migrations = 0; ///< Includes fault evacuations.
    uint64_t crossShard = 0; ///< Migrations whose src/dst shards differ.
    uint64_t hostFaults = 0;
    uint64_t placementFailures = 0; ///< Arrivals that found no host.
    double meanUtil = 0.0; ///< Mean used-slots/capacity across hosts, percent.
    double anomalyRate = 0.0; ///< Fraction of hosts the profiler flagged.
    uint64_t digest = 0;  ///< Shard- and thread-invariant epoch digest.
};

/**
 * Outcome of a fleet run. `digest` folds the boot placement and every
 * epoch digest; it is a pure function of (FleetConfig minus shards,
 * seed) — crossShard totals are the one shard-dependent statistic and
 * stay out of it.
 */
struct FleetResult
{
    uint64_t digest = 0;
    double simSeconds = 0.0; ///< Final global-clock reading.
    std::vector<FleetEpoch> epochs;
    uint64_t vmsBooted = 0; ///< VMs placed at boot (<= cfg.tenants).
    uint64_t vmsAlive = 0;  ///< Resident VMs at end of run.
    uint64_t arrivals = 0;
    uint64_t departures = 0;
    uint64_t migrations = 0;
    uint64_t crossShardMigrations = 0;
    uint64_t hostFaults = 0;
    uint64_t placementFailures = 0;
    bool consistent = true; ///< validateEpochs audits all passed.
    std::string inconsistency; ///< First audit failure, if any.
};

/**
 * A fleet of hosts sharded into contiguous partitions, simulated with
 * the two-plane discipline of src/serve:
 *
 *  - The DECISION plane is sequential: each epoch it advances the
 *    global clock and fixes every cross-shard event — VM arrivals and
 *    their placements, departures, migrations, host faults and the
 *    resulting evacuations — walking hosts in global index order with
 *    one Rng::stream(seed, {kFleetChurn, host, epoch}) per host.
 *  - The EXECUTION plane then profiles every host in parallel, one
 *    thread-pool task per shard, each host on its own
 *    Rng::stream(seed, {kFleetProfile, host, epoch}) writing only its
 *    own output slot (the ytsaurus master/node split, loosely: the
 *    master fixes placement, node trackers scan their own hosts).
 *
 * Because decisions are fixed before the fan-out and execution state is
 * slot-addressed per host, the epoch digest folded in global host
 * order is byte-identical at any shard count x thread count; shards
 * only affect wall-clock speed and the crossShard statistic (whether a
 * migration happened to cross a partition boundary).
 */
class FleetCluster
{
  public:
    explicit FleetCluster(const FleetConfig& cfg);

    size_t shards() const { return shards_; }

    /** Shard owning host `h` (contiguous ranges, remainder up front). */
    size_t shardOf(size_t h) const;
    /** Host range [begin, end) of shard `s`. */
    std::pair<size_t, size_t> shardRange(size_t s) const;

    /** VMs currently resident (alive) across the fleet. */
    uint64_t aliveVms() const { return alive_; }
    /**
     * VM table size. Departed and unplaced VMs free their slots and new
     * VMs reuse them, so this is the most VMs held at once so far (the
     * alive ones plus one being placed), not the number ever created.
     */
    size_t vmCount() const { return vms_.size(); }

    /**
     * Audit the placement state: every alive VM appears on exactly the
     * host its table entry names, every resident list entry is alive,
     * per-host used-slot counts match the resident VM sizes, and every
     * other slot of the VM table is dead and on the free list once.
     * Returns false and fills *why on the first violation.
     */
    bool validate(std::string* why = nullptr) const;

    /**
     * Boot the fleet and run cfg.epochs epochs. One-shot: the cluster
     * keeps its end-of-run state afterwards for inspection.
     */
    FleetResult run();

  private:
    struct Host
    {
        uint32_t used = 0;    ///< Occupied hardware-thread slots.
        bool down = false;    ///< Faulted this epoch.
        std::vector<uint32_t> residents; ///< Indices into vms_.
    };

    struct Vm
    {
        uint32_t host = 0;
        uint8_t vcpus = 0;
        bool alive = false;
    };

    // Decision-plane helpers (sequential only).
    /** A VM table slot for a new alive VM: a free one, else a new one. */
    uint32_t newVm(uint8_t vcpus);
    /** Mark `vm` dead and return its slot to the free list. */
    void freeVm(uint32_t vm);
    bool place(uint32_t vm, size_t start, size_t exclude, bool migration,
               FleetEpoch* ep);
    void bootFleet(FleetResult* out);
    void decideEpoch(int epoch, FleetEpoch* ep);
    /** One host's epoch: its fault, churn and arrivals, on its stream. */
    void decideHost(size_t h, util::Rng& rng, FleetEpoch* ep);
    void profileEpoch(int epoch);
    uint64_t epochDigest(int epoch, const FleetEpoch& ep) const;

    FleetConfig cfg_;
    size_t shards_ = 1;
    size_t slots_per_host_ = 32;
    std::vector<Host> hosts_;
    std::vector<Vm> vms_;
    std::vector<uint32_t> free_;  ///< Dead slots of vms_, reused LIFO.
    std::vector<double> scores_;  ///< Execution-plane output slots.
    std::vector<uint8_t> anomaly_; ///< Execution-plane flag slots.
    uint64_t alive_ = 0;
};

} // namespace sim
} // namespace bolt

#endif // BOLT_SIM_SHARD_H
