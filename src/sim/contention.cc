#include "contention.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace sim {

ResourceVector
ContentionModel::externalPressure(const Server& server, TenantId observer,
                                  const PressureMap& pressure) const
{
    ResourceVector total;
    for (const auto& t : server.tenants()) {
        if (t.id == observer)
            continue;
        auto it = pressure.find(t.id);
        if (it == pressure.end())
            continue;
        total += visibleFrom(server, observer, t.id, pressure);
    }
    return total.clamped();
}

ResourceVector
ContentionModel::visibleFrom(const Server& server, TenantId observer,
                             TenantId source,
                             const PressureMap& pressure) const
{
    ResourceVector out;
    auto it = pressure.find(source);
    if (it == pressure.end() || source == observer)
        return out;
    const ResourceVector& p = it->second;
    bool share_core = server.shareCore(observer, source);
    for (Resource r : kAllResources) {
        if (isCoreResource(r) && !share_core)
            continue; // core-private: invisible without a shared core
        out[r] = p[r] * iso_.crossVisibility(r);
    }
    return out;
}

double
ContentionModel::corePressureFrom(const Server& server, TenantId observer,
                                  int core, Resource r,
                                  const PressureMap& pressure) const
{
    if (!isCoreResource(r))
        return 0.0;
    TenantId sibling = coreSibling(server, observer, core);
    if (sibling == kNoTenant)
        return 0.0;
    auto it = pressure.find(sibling);
    if (it == pressure.end())
        return 0.0;
    return it->second[r] * iso_.crossVisibility(r);
}

TenantId
ContentionModel::coreSibling(const Server& server, TenantId observer,
                             int core) const
{
    return server.siblingOn(core, observer);
}

double
ContentionModel::slowdown(const ResourceVector& own,
                          const ResourceVector& sensitivity,
                          const ResourceVector& external) const
{
    // Capacity overflow on each resource stalls the tenant in proportion
    // to its sensitivity. Contributions compose multiplicatively: a job
    // stalled in both memory bandwidth and LLC is slower than the sum of
    // the individual stalls (queueing compounding).
    double factor = 1.0;
    for (Resource r : kAllResources) {
        double demand = own[r] + external[r];
        double overload = std::max(0.0, demand - 100.0) / 100.0;
        if (overload <= 0.0)
            continue;
        double s = std::clamp(sensitivity[r], 0.0, 1.0);
        // kappa: how sharply overflow on this resource stalls execution.
        // On-chip stalls (cache/CPU) serialize harder than spillable
        // off-chip queues.
        double kappa = isCoreResource(r) || r == Resource::LLC ? 3.0 : 2.2;
        factor *= 1.0 + kappa * s * overload;
    }
    return factor;
}

double
ContentionModel::cpuUtilization(const Server& server,
                                const PressureMap& pressure) const
{
    double util = 0.0;
    double slots = static_cast<double>(server.totalSlots());
    for (const auto& t : server.tenants()) {
        auto it = pressure.find(t.id);
        if (it == pressure.end())
            continue;
        util += it->second[Resource::CPU] *
                static_cast<double>(t.vcpus) / slots;
    }
    return std::clamp(util, 0.0, 100.0);
}

} // namespace sim
} // namespace bolt
