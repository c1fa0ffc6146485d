#include "cluster.h"

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

} // namespace sim
} // namespace bolt
