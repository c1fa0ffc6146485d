#include "isolation.h"

namespace bolt {
namespace sim {

double
IsolationConfig::crossVisibility(Resource r) const
{
    double f = 1.0;

    // Containers and VMs constrain memory capacity (cgroups / fixed VM
    // memory) and schedule within a core allocation, so a co-resident
    // sees less of a tenant's footprint than on baremetal.
    if (platform != Platform::Baremetal) {
        if (r == Resource::MemCap)
            f *= 0.30;
        if (isCoreResource(r))
            f *= 0.88;
        // Virtualization adds another layer of indirection (vCPU
        // scheduling, virtio queues) that blurs the signal slightly.
        if (platform == Platform::VirtualMachine &&
            (r == Resource::NetBw || r == Resource::DiskBw)) {
            f *= 0.90;
        }
    }

    // Thread pinning removes scheduler float: core-resource contention
    // only happens on explicitly shared cores instead of bleeding across
    // the whole socket as the Linux scheduler migrates tasks.
    if (threadPinning && isCoreResource(r))
        f *= platform == Platform::Baremetal ? 0.60 : 0.80;

    // qdisc/HTB partitions *egress* bandwidth only (§6); contention on
    // ingress and on the shared NIC queues remains partly visible.
    if (netBwPartitioning && r == Resource::NetBw)
        f *= 0.50;

    // Software-only DRAM bandwidth isolation (scheduler-enforced budget)
    // is coarser than a hardware partition.
    if (memBwPartitioning && r == Resource::MemBw)
        f *= 0.45;

    if (cachePartitioning && r == Resource::LLC)
        f *= 0.08;

    // Core isolation removes hyperthread sharing entirely; the contention
    // model enforces that through the topology (no shared cores), so no
    // attenuation is applied here beyond the mechanisms above.
    return f;
}

double
IsolationConfig::measurementNoise() const
{
    // Pressure-point sigma of a single probe reading.
    double sigma = 2.2;
    if (platform == Platform::Baremetal && !threadPinning)
        sigma += 2.0; // scheduler float adds jitter
    if (platform == Platform::VirtualMachine)
        sigma += 0.5; // virtualization overhead jitter
    return sigma;
}

double
IsolationConfig::selfContentionPenalty(int tenant_threads) const
{
    if (!coreIsolation || tenant_threads <= 1)
        return 1.0;
    // Threads of the same job packed onto shared cores contend in
    // L1/L2/FU; the paper reports 34% average execution-time penalty.
    // Penalty grows with thread count and saturates.
    double extra = 0.34 * (1.0 - 1.0 / static_cast<double>(tenant_threads));
    return 1.0 + extra / (1.0 - 1.0 / 2.0); // normalized so 2 threads ~ +34%
}

IsolationConfig
IsolationConfig::none(Platform p)
{
    IsolationConfig c;
    c.platform = p;
    return c;
}

IsolationConfig
IsolationConfig::withThreadPinning(Platform p)
{
    IsolationConfig c = none(p);
    c.threadPinning = true;
    return c;
}

IsolationConfig
IsolationConfig::withNetPartitioning(Platform p)
{
    IsolationConfig c = withThreadPinning(p);
    c.netBwPartitioning = true;
    return c;
}

IsolationConfig
IsolationConfig::withMemBwPartitioning(Platform p)
{
    IsolationConfig c = withNetPartitioning(p);
    c.memBwPartitioning = true;
    return c;
}

IsolationConfig
IsolationConfig::withCachePartitioning(Platform p)
{
    IsolationConfig c = withMemBwPartitioning(p);
    c.cachePartitioning = true;
    return c;
}

IsolationConfig
IsolationConfig::withCoreIsolation(Platform p)
{
    IsolationConfig c = withCachePartitioning(p);
    c.coreIsolation = true;
    return c;
}

IsolationConfig
IsolationConfig::coreIsolationOnly(Platform p)
{
    IsolationConfig c = none(p);
    c.coreIsolation = true;
    return c;
}

IsolationConfig
IsolationConfig::forLevel(IsolationLevel level, Platform p)
{
    switch (level) {
#define BOLT_ISOLATION_CASE(Sym, Key, Factory)                                 \
    case IsolationLevel::Sym:                                                  \
        return Factory(p);
        BOLT_ISOLATION_CATALOG(BOLT_ISOLATION_CASE)
#undef BOLT_ISOLATION_CASE
    }
    return none(p);
}

} // namespace sim
} // namespace bolt
