#include "sim/shard.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/thread_pool.h"

namespace bolt {
namespace sim {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// Probes the execution-plane profiler draws per host per epoch.
constexpr int kProfileProbes = 4;
/// Profile score above which a host is flagged anomalous.
constexpr double kAnomalyThreshold = 75.0;

/// Boot tenants whose draws are taken on the pool before placing them
/// (256 KB of slots). Every block ends in a pool barrier, so a block
/// holds several msec of draws: a worker the host wakes late then
/// delays a block by a small share of its time.
constexpr size_t kBootBlock = 32768;
/// Boot tenants one pool task draws for: 16 tasks per block.
constexpr size_t kBootTask = 2048;

using util::seeds::kFleetBoot;
using util::seeds::kFleetChurn;
using util::seeds::kFleetProfile;

/**
 * Call body(i, rng) for every i in [begin, end), in order, where rng is
 * stream(i). The streams start util::Rng::kPrimeLanes at a time through
 * Rng::prime, which overlaps their seeding.
 */
template <typename Stream, typename Body>
void
forEachStream(size_t begin, size_t end, Stream&& stream, Body&& body)
{
    std::array<util::Rng, util::Rng::kPrimeLanes> rngs;
    for (size_t b = begin; b < end; b += rngs.size()) {
        size_t n = std::min(rngs.size(), end - b);
        for (size_t j = 0; j < n; ++j)
            rngs[j] = stream(b + j);
        util::Rng::prime({rngs.data(), n});
        for (size_t j = 0; j < n; ++j)
            body(b + j, rngs[j]);
    }
}

/**
 * Run one fleet stage and record its wall time, in msec, into the
 * Wall-class histogram `wall_ms`. The clock is read only when metrics
 * are on.
 */
template <typename Stage>
void
timeStage(obs::MetricsRegistry& metrics, obs::MetricId wall_ms,
          Stage&& stage)
{
    if (!metrics.enabled()) {
        stage();
        return;
    }
    auto start = std::chrono::steady_clock::now();
    stage();
    metrics.observe(wall_ms, std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
}

} // namespace

FleetCluster::FleetCluster(const FleetConfig& cfg) : cfg_(cfg)
{
    if (cfg_.hosts == 0)
        cfg_.hosts = 1;
    if (cfg_.epochs < 0)
        cfg_.epochs = 0;
    if (cfg_.maxVcpus < 1)
        cfg_.maxVcpus = 1;
    shards_ = std::clamp<size_t>(cfg_.shards, 1, cfg_.hosts);
    slots_per_host_ = static_cast<size_t>(
        std::max(1, cfg_.cores) * std::max(1, cfg_.threadsPerCore));
    hosts_.resize(cfg_.hosts);
    scores_.assign(cfg_.hosts, 0.0);
    anomaly_.assign(cfg_.hosts, 0);
    // Boot fills `tenants` slots, and within an epoch arrivals on early
    // hosts come before departures on later ones, so a fleet that does
    // not grow briefly holds up to one epoch's arrivals more: at most
    // one per host at arrival rates up to 1. Reserving both keeps the
    // table from reallocating, and doubling, on the seeds where that
    // happens.
    vms_.reserve(cfg_.tenants + cfg_.hosts);
}

size_t
FleetCluster::shardOf(size_t h) const
{
    // Contiguous partition: the first `rem` shards get base + 1 hosts.
    size_t base = hosts_.size() / shards_;
    size_t rem = hosts_.size() % shards_;
    size_t wide = rem * (base + 1);
    if (h < wide)
        return h / (base + 1);
    return rem + (h - wide) / base;
}

std::pair<size_t, size_t>
FleetCluster::shardRange(size_t s) const
{
    size_t base = hosts_.size() / shards_;
    size_t rem = hosts_.size() % shards_;
    size_t begin = s * base + std::min(s, rem);
    size_t end = begin + base + (s < rem ? 1 : 0);
    return {begin, end};
}

bool
FleetCluster::validate(std::string* why) const
{
    auto fail = [&](const std::string& msg) {
        if (why)
            *why = msg;
        return false;
    };
    uint64_t alive = 0;
    std::vector<uint8_t> seen(vms_.size(), 0);
    for (size_t h = 0; h < hosts_.size(); ++h) {
        const Host& host = hosts_[h];
        uint64_t used = 0;
        for (uint32_t vm : host.residents) {
            if (vm >= vms_.size())
                return fail("host " + std::to_string(h) +
                            " lists unknown vm " + std::to_string(vm));
            if (seen[vm])
                return fail("vm " + std::to_string(vm) +
                            " resident on two hosts");
            seen[vm] = 1;
            if (!vms_[vm].alive)
                return fail("vm " + std::to_string(vm) +
                            " resident but not alive");
            if (vms_[vm].host != h)
                return fail("vm " + std::to_string(vm) +
                            " resident on host " + std::to_string(h) +
                            " but placed on " +
                            std::to_string(vms_[vm].host));
            used += vms_[vm].vcpus;
            ++alive;
        }
        if (used != host.used)
            return fail("host " + std::to_string(h) + " used slots " +
                        std::to_string(host.used) + " != resident sum " +
                        std::to_string(used));
    }
    for (size_t v = 0; v < vms_.size(); ++v)
        if (vms_[v].alive && !seen[v])
            return fail("vm " + std::to_string(v) +
                        " alive but resident nowhere");
    if (alive != alive_)
        return fail("alive count " + std::to_string(alive_) +
                    " != resident total " + std::to_string(alive));
    for (uint32_t vm : free_) {
        if (vm >= vms_.size() || vms_[vm].alive || seen[vm])
            return fail("free slot " + std::to_string(vm) + " in use");
        seen[vm] = 1;
    }
    if (alive + free_.size() != vms_.size())
        return fail("vm table " + std::to_string(vms_.size()) +
                    " != alive + free " +
                    std::to_string(alive + free_.size()));
    return true;
}

uint32_t
FleetCluster::newVm(uint8_t vcpus)
{
    Vm vm;
    vm.vcpus = vcpus;
    vm.alive = true;
    if (free_.empty()) {
        vms_.push_back(vm);
        return static_cast<uint32_t>(vms_.size() - 1);
    }
    uint32_t id = free_.back();
    free_.pop_back();
    vms_[id] = vm;
    return id;
}

void
FleetCluster::freeVm(uint32_t vm)
{
    vms_[vm].alive = false;
    free_.push_back(vm);
}

bool
FleetCluster::place(uint32_t vm, size_t start, size_t exclude,
                    bool migration, FleetEpoch* ep)
{
    // Ring first fit: the first host from `start` onward, wrapping,
    // that is up, is not `exclude` and has room for the VM.
    const size_t H = hosts_.size();
    const uint32_t need = vms_[vm].vcpus;
    size_t h = kNone;
    for (size_t k = 0; k < H; ++k) {
        size_t c = start + k;
        if (c >= H)
            c -= H;
        if (c != exclude && !hosts_[c].down &&
            hosts_[c].used + need <= slots_per_host_) {
            h = c;
            break;
        }
    }
    if (h == kNone)
        return false;
    Host& host = hosts_[h];
    host.used += need;
    host.residents.push_back(vm);
    vms_[vm].host = static_cast<uint32_t>(h);
    if (migration && ep) {
        ++ep->migrations;
        if (shardOf(exclude) != shardOf(h))
            ++ep->crossShard;
    }
    return true;
}

void
FleetCluster::bootFleet(FleetResult* out)
{
    // Boot placement is decision-plane work: one stream per tenant,
    // ring first-fit from a drawn start host. A tenant's draws do not
    // depend on placement state, so each block of tenants draws on the
    // pool, every task writing only its own tenants' slots, and is then
    // placed in tenant order on this thread.
    struct BootDraw
    {
        uint32_t start = 0;
        uint8_t vcpus = 0;
    };
    std::vector<BootDraw> draws(kBootBlock);
    for (size_t b = 0; b < cfg_.tenants; b += kBootBlock) {
        size_t n = std::min(kBootBlock, cfg_.tenants - b);
        util::parallelFor(
            0, (n + kBootTask - 1) / kBootTask,
            [&](size_t task) {
                size_t lo = task * kBootTask;
                forEachStream(
                    lo, std::min(n, lo + kBootTask),
                    [&](size_t i) {
                        return util::Rng::stream(cfg_.seed,
                                                 {kFleetBoot, b + i});
                    },
                    [&](size_t i, util::Rng& rng) {
                        draws[i].vcpus = static_cast<uint8_t>(
                            rng.uniformInt(1, cfg_.maxVcpus));
                        draws[i].start =
                            static_cast<uint32_t>(rng.index(hosts_.size()));
                    });
            },
            1);
        for (size_t i = 0; i < n; ++i) {
            uint32_t id = newVm(draws[i].vcpus);
            if (place(id, draws[i].start, kNone, false, nullptr)) {
                ++alive_;
                ++out->vmsBooted;
            } else {
                freeVm(id);
                ++out->placementFailures;
            }
        }
    }
    out->vmsAlive = alive_;
}

void
FleetCluster::decideEpoch(int epoch, FleetEpoch* ep)
{
    const uint64_t e = static_cast<uint64_t>(epoch);
    for (Host& host : hosts_)
        host.down = false;
    forEachStream(
        0, hosts_.size(),
        [&](size_t h) {
            return util::Rng::stream(cfg_.seed, {kFleetChurn, h, e});
        },
        [&](size_t h, util::Rng& rng) { decideHost(h, rng, ep); });
    ep->alive = alive_;
}

void
FleetCluster::decideHost(size_t h, util::Rng& rng, FleetEpoch* ep)
{
    const size_t H = hosts_.size();
    Host& host = hosts_[h];

    // Host fault: the host drops for this epoch and the master
    // evacuates every resident VM (a migration when a home is found, a
    // departure when the fleet has no room).
    if (cfg_.hostFaultProb > 0.0 && rng.bernoulli(cfg_.hostFaultProb)) {
        host.down = true;
        ++ep->hostFaults;
        while (!host.residents.empty()) {
            uint32_t vm = host.residents.back();
            host.residents.pop_back();
            host.used -= vms_[vm].vcpus;
            if (!place(vm, rng.index(H), h, true, ep)) {
                freeVm(vm);
                --alive_;
                ++ep->departures;
            }
        }
        return; // no churn draws or arrivals on a down host
    }

    // Per-VM churn: one uniform draw decides depart / migrate / stay.
    // Swap-removal keeps the pass O(residents); the swapped-in VM gets
    // its own draw at the same index.
    for (size_t i = 0; i < host.residents.size();) {
        uint32_t vm = host.residents[i];
        double u = rng.uniform();
        if (u < cfg_.departureProb) {
            host.residents[i] = host.residents.back();
            host.residents.pop_back();
            host.used -= vms_[vm].vcpus;
            freeVm(vm);
            --alive_;
            ++ep->departures;
            continue;
        }
        if (u < cfg_.departureProb + cfg_.migrationProb) {
            if (place(vm, rng.index(H), h, true, ep)) {
                host.residents[i] = host.residents.back();
                host.residents.pop_back();
                host.used -= vms_[vm].vcpus;
                continue;
            }
        }
        ++i;
    }

    // Arrivals: floor(rate) guaranteed, fractional part Bernoulli.
    int n = static_cast<int>(cfg_.arrivalsPerHostEpoch);
    double frac = cfg_.arrivalsPerHostEpoch - n;
    if (frac > 0.0 && rng.bernoulli(frac))
        ++n;
    for (int a = 0; a < n; ++a) {
        uint32_t id = newVm(
            static_cast<uint8_t>(rng.uniformInt(1, cfg_.maxVcpus)));
        if (place(id, rng.index(H), kNone, false, nullptr)) {
            ++alive_;
            ++ep->arrivals;
        } else {
            freeVm(id);
            ++ep->placementFailures;
        }
    }
}

void
FleetCluster::profileEpoch(int epoch)
{
    const uint64_t e = static_cast<uint64_t>(epoch);
    // One task per shard: a node tracker scans only its own hosts and
    // writes only their slots, on streams keyed by (host, epoch) — so
    // neither the shard count nor the thread count can change a slot.
    util::parallelFor(
        0, shards_,
        [&](size_t s) {
            auto [begin, end] = shardRange(s);
            forEachStream(
                begin, end,
                [&](size_t h) {
                    return util::Rng::stream(cfg_.seed,
                                             {kFleetProfile, h, e});
                },
                [&](size_t h, util::Rng& rng) {
                    const Host& host = hosts_[h];
                    if (host.down) {
                        scores_[h] = 0.0;
                        anomaly_[h] = 0;
                        return;
                    }
                    double load = 100.0 * static_cast<double>(host.used) /
                                  static_cast<double>(slots_per_host_);
                    double score = 0.0;
                    for (int k = 0; k < kProfileProbes; ++k)
                        score += rng.clampedGaussian(load, 6.0, 0.0, 100.0);
                    score /= kProfileProbes;
                    scores_[h] = score;
                    anomaly_[h] = score > kAnomalyThreshold ? 1 : 0;
                });
        },
        1);
}

uint64_t
FleetCluster::epochDigest(int epoch, const FleetEpoch& ep) const
{
    // Folded sequentially in global host order over decision-plane
    // state and execution-plane output slots. crossShard stays out:
    // it is the one statistic that depends on where the partition
    // boundaries fall.
    util::Fnv1a d;
    d.u64(static_cast<uint64_t>(epoch));
    d.u64(ep.alive);
    d.u64(ep.arrivals);
    d.u64(ep.departures);
    d.u64(ep.migrations);
    d.u64(ep.hostFaults);
    d.u64(ep.placementFailures);
    for (size_t h = 0; h < hosts_.size(); ++h) {
        const Host& host = hosts_[h];
        d.u64(host.used);
        d.u64(host.residents.size());
        d.u8(host.down ? 1 : 0);
        d.f64(scores_[h]);
        d.u8(anomaly_[h]);
    }
    return d.h;
}

FleetResult
FleetCluster::run()
{
    auto& metrics = obs::MetricsRegistry::global();
    auto& telemetry = obs::TimeSeriesRecorder::global();

    FleetResult out;
    util::Fnv1a d;
    d.u64(hosts_.size());
    d.u64(cfg_.tenants);
    d.u64(static_cast<uint64_t>(cfg_.epochs));
    d.u64(cfg_.seed);

    timeStage(metrics, obs::MetricId::kFleetBootWallMs,
              [&] { bootFleet(&out); });
    d.u64(out.vmsBooted);
    for (const Host& host : hosts_) {
        d.u64(host.used);
        d.u64(host.residents.size());
    }
    if (cfg_.validateEpochs) {
        std::string why;
        if (!validate(&why)) {
            out.consistent = false;
            out.inconsistency = "boot: " + why;
        }
    }

    double t = 0.0;
    out.epochs.reserve(static_cast<size_t>(cfg_.epochs));
    for (int e = 0; e < cfg_.epochs; ++e) {
        FleetEpoch ep;
        timeStage(metrics, obs::MetricId::kFleetDecideWallMs,
                  [&] { decideEpoch(e, &ep); });
        timeStage(metrics, obs::MetricId::kFleetProfileWallMs,
                  [&] { profileEpoch(e); });

        t += kFleetEpochSec;
        ep.t = t;
        uint64_t used = 0, anomalies = 0;
        for (size_t h = 0; h < hosts_.size(); ++h) {
            used += hosts_[h].used;
            anomalies += anomaly_[h];
        }
        ep.meanUtil =
            100.0 * static_cast<double>(used) /
            (static_cast<double>(hosts_.size()) *
             static_cast<double>(slots_per_host_));
        ep.anomalyRate = static_cast<double>(anomalies) /
                         static_cast<double>(hosts_.size());
        ep.digest = epochDigest(e, ep);
        d.u64(ep.digest);

        out.arrivals += ep.arrivals;
        out.departures += ep.departures;
        out.migrations += ep.migrations;
        out.crossShardMigrations += ep.crossShard;
        out.hostFaults += ep.hostFaults;
        out.placementFailures += ep.placementFailures;

        if (cfg_.validateEpochs && out.consistent) {
            std::string why;
            if (!validate(&why)) {
                out.consistent = false;
                out.inconsistency =
                    "epoch " + std::to_string(e) + ": " + why;
            }
        }

        // Decision-plane telemetry: the global epoch roll-up plus the
        // per-shard occupancy series (labeled s<shard>).
        telemetry.sample(obs::SeriesId::kFleetUtil, ep.t, ep.meanUtil);
        if (telemetry.enabled()) {
            for (size_t s = 0; s < shards_; ++s) {
                auto [begin, end] = shardRange(s);
                uint64_t shard_used = 0;
                for (size_t h = begin; h < end; ++h)
                    shard_used += hosts_[h].used;
                double shard_util =
                    end == begin
                        ? 0.0
                        : 100.0 * static_cast<double>(shard_used) /
                              (static_cast<double>(end - begin) *
                               static_cast<double>(slots_per_host_));
                telemetry.sample(obs::SeriesId::kFleetShardUtil,
                                 obs::indexedLabel('s', s), ep.t,
                                 shard_util);
            }
            if (ep.arrivals)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "arrival", ep.t, ep.arrivals);
            if (ep.departures)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "departure", ep.t, ep.departures);
            if (ep.migrations)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "migration", ep.t, ep.migrations);
            if (ep.hostFaults)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "host-fault", ep.t, ep.hostFaults);
        }
        metrics.observe(obs::MetricId::kFleetEpochUtilPct, ep.meanUtil);
        metrics.gaugeMax(obs::MetricId::kFleetVmsAlivePeak,
                         static_cast<double>(ep.alive));

        out.epochs.push_back(ep);
    }

    out.digest = d.h;
    out.simSeconds = t;
    out.vmsAlive = alive_;

    metrics.add(obs::MetricId::kFleetEpochsRun,
                static_cast<uint64_t>(cfg_.epochs));
    metrics.add(obs::MetricId::kFleetVmArrivals, out.arrivals);
    metrics.add(obs::MetricId::kFleetVmDepartures, out.departures);
    metrics.add(obs::MetricId::kFleetVmMigrations, out.migrations);
    metrics.add(obs::MetricId::kFleetCrossShardMigrations,
                out.crossShardMigrations);
    metrics.add(obs::MetricId::kFleetHostFaults, out.hostFaults);
    return out;
}

} // namespace sim
} // namespace bolt
