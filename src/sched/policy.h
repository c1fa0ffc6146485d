#ifndef BOLT_SCHED_POLICY_H
#define BOLT_SCHED_POLICY_H

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sim/cluster.h"
#include "workloads/app.h"

namespace bolt {
namespace sched {

/**
 * Soft co-placement hint for multi-replica requests: Spread pushes each
 * further replica away from the servers already chosen (anti-affinity
 * accumulates), Pack pulls them toward the chosen set (affinity
 * accumulates). Repttack-style attackers game exactly these knobs.
 */
enum class PlacementHint : uint8_t { None, Spread, Pack };

/**
 * Constraints attached to one placement request. `avoid` is hard
 * anti-affinity (those servers are never candidates); `affinity` is a
 * soft preference (when any preferred server is feasible the candidate
 * set narrows to them, otherwise the policy falls back to the full
 * feasible set and counts the fallback).
 */
struct PlacementConstraints
{
    std::vector<size_t> avoid;    ///< Hard anti-affinity server indices.
    std::vector<size_t> affinity; ///< Soft preferred server indices.
    int replicas = 1;             ///< Fan-out width for replica sets.
    PlacementHint hint = PlacementHint::None;
};

/** One placement request: what to place, how big, and under what rules. */
struct PlacementRequest
{
    workloads::AppSpec spec;
    int vcpus = 1;
    PlacementConstraints constraints;
};

/**
 * Placement-policy interface. The policy only *picks* a server; the
 * caller performs the actual placement and then calls record() so
 * interference-aware policies can track what runs where.
 *
 * The generic pipeline lives in place(): build the feasible candidate
 * set (capacity filter in ascending server order, minus `avoid`,
 * narrowed to feasible `affinity` servers when the policy honors
 * affinity), then delegate to pickFrom(), which by default takes the
 * first strict argmax of score(). Concrete policies either supply a
 * score (LeastLoaded, Quasar, the secure allocator) or override
 * pickFrom() outright (the random and MAB policies).
 */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /**
     * Choose a server for `req`. @return server index, or nullopt when
     * nothing fits. Maintains the sched.picks / sched.pick_no_fit and
     * sched.policy_* counters.
     */
    std::optional<size_t> place(const sim::Cluster& cluster,
                                const PlacementRequest& req);

    /**
     * Unconstrained convenience used by the pre-arms-race call sites:
     * choose a server for an application needing `vcpus` hardware
     * threads.
     */
    std::optional<size_t> pick(const sim::Cluster& cluster,
                               const workloads::AppSpec& spec, int vcpus);

    /** Notify the policy that a tenant landed on a server. */
    virtual void record(sim::TenantId id, size_t server,
                        const workloads::AppSpec& spec);

    /** Notify the policy that a tenant left. */
    virtual void forget(sim::TenantId id);

    /** Policy display name. */
    virtual const char* name() const = 0;

    /**
     * Whether tenant-supplied affinity preferences narrow the candidate
     * set. Secure policies return false: trusting tenant affinity is
     * the constraint-gaming channel Repttack exploits, so hardened
     * allocators treat it as advisory-only and count the request as a
     * fallback.
     */
    virtual bool honorsAffinity() const { return true; }

    /** Servers on which the policy has recorded at least one tenant. */
    size_t residentsOn(size_t server) const;

  protected:
    /**
     * Desirability of `server` for `req`; higher wins. Only consulted
     * through the default pickFrom().
     */
    virtual double score(const sim::Cluster& cluster,
                         const PlacementRequest& req,
                         size_t server) const = 0;

    /**
     * Choose among the non-empty feasible `candidates` (ascending
     * server order). Default: first strict argmax of score().
     */
    virtual std::optional<size_t>
    pickFrom(const sim::Cluster& cluster, const PlacementRequest& req,
             const std::vector<size_t>& candidates);

    struct Placement
    {
        size_t server;
        workloads::AppSpec spec;
    };
    std::map<sim::TenantId, Placement> placements_;
};

/**
 * Place req.constraints.replicas copies of `req` through `policy`,
 * committing each landing via `commit` (which performs the actual
 * cluster placement and returns the new tenant id, or sim::kNoTenant
 * to veto). Between picks the spread/pack hint is applied: Spread adds
 * every chosen server to the anti-affinity set, Pack adds it to the
 * affinity set. @return the servers chosen, in placement order.
 */
std::vector<size_t>
placeReplicaSet(PlacementPolicy& policy, const sim::Cluster& cluster,
                PlacementRequest req,
                const std::function<sim::TenantId(size_t server)>& commit);

} // namespace sched
} // namespace bolt

#endif // BOLT_SCHED_POLICY_H
