#include "fault.h"

#include <algorithm>

#include "util/seeds.h"
#include "workloads/catalog.h"

namespace bolt {
namespace fault {

using util::seeds::kFaultArrival;
using util::seeds::kFaultDeparture;
using util::seeds::kFaultFlip;
using util::seeds::kFaultJitter;
using util::seeds::kFaultSample;

HostFaults::HostFaults(const FaultPlan& plan, uint64_t root_seed,
                       size_t server)
    : plan_(plan), seed_(plan.seed ? plan.seed : root_seed),
      server_(server),
      sampleRng_(util::Rng::stream(seed_, {kFaultSample, server}))
{
}

SampleFault
HostFaults::nextSampleFault()
{
    // One uniform pair per probe, whatever fires: the stream position
    // after N probes is independent of which faults fired, so a host's
    // fault sequence depends only on how many probes ran before it.
    double u = sampleRng_.uniform();
    double mag = sampleRng_.uniform();
    SampleFault f;
    if (u < plan_.dropoutProb) {
        f.dropped = true;
    } else if (u < plan_.dropoutProb + plan_.spikeProb) {
        f.delta = plan_.spikeMagnitude * (0.25 + 0.75 * mag);
    }
    return f;
}

double
HostFaults::capacityFactor(double t) const
{
    if (plan_.capacityJitterAmp <= 0.0)
        return 1.0;
    auto window = static_cast<uint64_t>(
        std::max(0.0, t) / plan_.capacityJitterWindowSec);
    util::Rng r = util::Rng::stream(seed_, {kFaultJitter, server_, window});
    return 1.0 + plan_.capacityJitterAmp * r.uniform(-1.0, 1.0);
}

ArrivalEvent
HostFaults::arrivalAt(int round) const
{
    ArrivalEvent ev;
    if (plan_.arrivalProb <= 0.0)
        return ev;
    util::Rng r = util::Rng::stream(
        seed_, {kFaultArrival, server_, static_cast<uint64_t>(round)});
    if (!r.bernoulli(plan_.arrivalProb))
        return ev;
    ev.fires = true;
    // Unscored neighbor from the full catalog — the EC2 pool's "someone
    // else's VM landed next to us" case, interactive services included.
    const auto& families = workloads::catalog();
    ev.spec = workloads::randomSpec(families[r.index(families.size())], r);
    return ev;
}

bool
HostFaults::departureAt(int round, size_t victim) const
{
    if (plan_.departureProb <= 0.0)
        return false;
    util::Rng r = util::Rng::stream(
        seed_,
        {kFaultDeparture, server_, static_cast<uint64_t>(round), victim});
    return r.bernoulli(plan_.departureProb);
}

bool
HostFaults::phaseFlipAt(int round, size_t victim, double period_sec,
                        double* new_phase) const
{
    if (plan_.phaseFlipProb <= 0.0)
        return false;
    util::Rng r = util::Rng::stream(
        seed_, {kFaultFlip, server_, static_cast<uint64_t>(round), victim});
    if (!r.bernoulli(plan_.phaseFlipProb))
        return false;
    *new_phase = r.uniform(0.0, std::max(1.0, period_sec));
    return true;
}

} // namespace fault
} // namespace bolt
