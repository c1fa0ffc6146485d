#include "cluster.h"

#include "util/thread_pool.h"

namespace bolt {
namespace sim {

Cluster::Cluster(size_t servers, int cores, int threads_per_core,
                 IsolationConfig iso)
    : iso_(iso)
{
    servers_.reserve(servers);
    for (size_t i = 0; i < servers; ++i)
        servers_.emplace_back(i, cores, threads_per_core);
}

bool
Cluster::placeOn(size_t server_idx, const Tenant& tenant)
{
    return servers_.at(server_idx).place(tenant, iso_);
}

bool
Cluster::remove(TenantId id)
{
    for (auto& s : servers_)
        if (s.remove(id) > 0)
            return true;
    return false;
}

std::optional<size_t>
Cluster::locate(TenantId id) const
{
    for (const auto& s : servers_)
        if (s.tenant(id))
            return s.id();
    return std::nullopt;
}

std::vector<size_t>
Cluster::serversWithCapacity(int slots) const
{
    std::vector<size_t> out;
    for (const auto& s : servers_)
        if (s.placeableSlots(iso_) >= slots)
            out.push_back(s.id());
    return out;
}

void
Cluster::forEachServer(
    const std::function<void(size_t, const Server&)>& fn) const
{
    // One server per chunk: detection work per host is coarse and
    // uneven (hosts finish in different iteration counts), so the
    // work-stealing pool balances best with grain 1.
    util::parallelFor(
        0, servers_.size(), [&](size_t s) { fn(s, servers_[s]); }, 1);
}

} // namespace sim
} // namespace bolt
