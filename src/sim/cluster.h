#ifndef BOLT_SIM_CLUSTER_H
#define BOLT_SIM_CLUSTER_H

#include <optional>
#include <vector>

#include "sim/isolation.h"
#include "sim/server.h"

namespace bolt {
namespace sim {

/**
 * A cluster of identical physical hosts (the paper's 40-node testbed and
 * the 200-instance EC2 pool are both instances of this).
 *
 * The cluster owns tenant-id allocation and placement bookkeeping;
 * placement *policy* lives in the sched library.
 */
class Cluster
{
  public:
    /**
     * @param servers          Host count.
     * @param cores            Physical cores per host.
     * @param threads_per_core Hardware threads per core.
     * @param iso              Isolation configuration shared by all hosts.
     */
    Cluster(size_t servers, int cores = 8, int threads_per_core = 2,
            IsolationConfig iso = {});

    size_t size() const { return servers_.size(); }
    Server& server(size_t i) { return servers_.at(i); }
    const Server& server(size_t i) const { return servers_.at(i); }

    const IsolationConfig& isolation() const { return iso_; }

    /** Allocate a fresh tenant id (never reused). */
    TenantId nextTenantId() { return next_id_++; }

    /**
     * Place a tenant on a specific server. @return true on success.
     * The cluster records the tenant → server mapping.
     */
    bool placeOn(size_t server_idx, const Tenant& tenant);

    /** Remove a tenant from wherever it is placed. @return true if found. */
    bool remove(TenantId id);

    /** Server index hosting a tenant, if placed. */
    std::optional<size_t> locate(TenantId id) const;

    /** Indices of servers with at least `slots` placeable slots. */
    std::vector<size_t> serversWithCapacity(int slots) const;

  private:
    std::vector<Server> servers_;
    IsolationConfig iso_;
    TenantId next_id_ = 1;
};

} // namespace sim
} // namespace bolt

#endif // BOLT_SIM_CLUSTER_H
