#ifndef BOLT_SIM_CONTENTION_H
#define BOLT_SIM_CONTENTION_H

#include <map>
#include <vector>

#include "sim/isolation.h"
#include "sim/resource.h"
#include "sim/server.h"

namespace bolt {
namespace sim {

/**
 * Per-tick pressure exerted by each tenant on a host, supplied by the
 * workload layer. Pressure is in [0, 100] per resource.
 */
using PressureMap = std::map<TenantId, ResourceVector>;

/**
 * Computes everything interference-related on a single host:
 *
 *  - the *external* pressure a given tenant observes/feels per resource
 *    (what a Bolt probe measures, and what degrades a victim),
 *  - the slowdown of a tenant given its own pressure, sensitivity, and
 *    the external pressure,
 *  - the host's CPU utilization (what a migration defense samples).
 *
 * Core resources (L1-i, L1-d, L2, CPU) only leak across tenants whose
 * threads share a physical core; uncore resources aggregate additively
 * across all co-residents (clamped at capacity) — the linearity
 * assumption Section 3.3/3.5 of the paper states.
 */
class ContentionModel
{
  public:
    explicit ContentionModel(IsolationConfig iso = {}) : iso_(iso) {}

    const IsolationConfig& isolation() const { return iso_; }

    /**
     * External pressure tenant `observer` experiences on `server`, given
     * the instantaneous pressure of every tenant. Excludes the observer's
     * own pressure. Cross-visibility attenuation from the isolation
     * config is applied per resource.
     */
    ResourceVector externalPressure(const Server& server,
                                    TenantId observer,
                                    const PressureMap& pressure) const;

    /**
     * Same, but restricted to one co-resident `source` (used by the
     * detector's ground-truth bookkeeping and by tests).
     */
    ResourceVector visibleFrom(const Server& server, TenantId observer,
                               TenantId source,
                               const PressureMap& pressure) const;

    /**
     * Core-resource pressure visible to `observer` on one specific
     * physical core: the pressure of the hyperthread sibling sharing
     * that core, attenuated by the isolation config. Zero when no other
     * tenant shares the core. Because hyperthreads are never shared
     * between active instances, this is a *clean, single-tenant* signal
     * (Section 3.3).
     */
    double corePressureFrom(const Server& server, TenantId observer,
                            int core, Resource r,
                            const PressureMap& pressure) const;

    /** The tenant whose pressure corePressureFrom reports, if any. */
    TenantId coreSibling(const Server& server, TenantId observer,
                         int core) const;

    /**
     * Execution slowdown factor (>= 1.0) for a tenant whose own demand is
     * `own`, whose per-resource sensitivity is `sensitivity` (entries in
     * [0, 1]), under external pressure `external`.
     *
     * Each overloaded resource (own + external beyond capacity)
     * contributes multiplicatively; the contribution is scaled by the
     * tenant's sensitivity to that resource.
     */
    double slowdown(const ResourceVector& own,
                    const ResourceVector& sensitivity,
                    const ResourceVector& external) const;

    /**
     * Host CPU utilization in [0, 100]: each tenant contributes its CPU
     * pressure weighted by its share of hardware threads. This is the
     * signal a load-triggered migration defense samples (Section 5.1).
     */
    double cpuUtilization(const Server& server,
                          const PressureMap& pressure) const;

  private:
    IsolationConfig iso_;
};

} // namespace sim
} // namespace bolt

#endif // BOLT_SIM_CONTENTION_H
