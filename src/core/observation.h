#ifndef BOLT_CORE_OBSERVATION_H
#define BOLT_CORE_OBSERVATION_H

#include <array>
#include <optional>

#include "sim/resource.h"

namespace bolt {
namespace core {

/**
 * The sparse pressure signal one profiling round produces: a measured
 * c_i for each resource Bolt probed (2-5 of the ten), nothing for the
 * rest. The recommender's collaborative-filtering stage recovers the
 * unobserved entries.
 *
 * Each entry carries a bound kind. An Exact entry is attributed to a
 * single workload (a core-resource probe isolates the one hyperthread
 * sibling; a single co-resident's uncore pressure is also exact). An
 * Upper entry is an aggregate over several co-residents — a candidate
 * application may legitimately sit *below* it, but not above.
 */
class SparseObservation
{
  public:
    enum class Bound : uint8_t {
        Exact, ///< Attributable to one workload.
        Upper, ///< Aggregate across co-residents: an upper bound.
    };

    SparseObservation() = default;

    /** Record a measurement for one resource. */
    void set(sim::Resource r, double pressure, Bound bound = Bound::Exact)
    {
        values_[sim::index(r)] = pressure;
        bounds_[sim::index(r)] = bound;
    }

    bool has(sim::Resource r) const
    {
        return values_[sim::index(r)].has_value();
    }

    /** Measured pressure; only valid when has(r). */
    double get(sim::Resource r) const { return *values_[sim::index(r)]; }

    /** Bound kind; only meaningful when has(r). */
    Bound bound(sim::Resource r) const { return bounds_[sim::index(r)]; }

    bool isExact(sim::Resource r) const
    {
        return has(r) && bound(r) == Bound::Exact;
    }

    /** Number of measured resources. */
    size_t observedCount() const;

    /**
     * Fill unmeasured entries from an earlier observation (iterative
     * detection accumulates coverage across profiling rounds; fresh
     * measurements always win over carried ones).
     */
    void mergeFrom(const SparseObservation& older);

    /** Copy with every Upper entry re-marked Exact (single-tenant case). */
    SparseObservation allExact() const;

  private:
    std::array<std::optional<double>, sim::kNumResources> values_;
    std::array<Bound, sim::kNumResources> bounds_{};
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_OBSERVATION_H
