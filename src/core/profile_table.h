#ifndef BOLT_CORE_PROFILE_TABLE_H
#define BOLT_CORE_PROFILE_TABLE_H

#include <cstddef>

#include "core/training.h"
#include "linalg/kernels.h"
#include "sim/resource.h"
#include "workloads/app.h"

namespace bolt {
namespace core {

/**
 * Per-entry tables of the training set's load-scaled profiles — the
 * level grid the recommender's deviation kernels walk.
 *
 * The load-scaling law (workloads::scaledPressureAt) is piecewise
 * linear in the load level: one knot at workloads::kCapacityLoadFloor
 * for capacity resources plus saturation at 100 pressure points. The
 * table therefore stores, per (entry, resource), the full-load base
 * value (the segment slope) alongside the profile evaluated at the edges
 * of a grid of level cells. at() reconstructs the profile at *any* level
 * exactly — bit-identical to building the entry's
 * workloads::scaledPressure vector — without touching the TrainingSet,
 * while the edges bound it: the scaling law is nondecreasing in level
 * (a negative base clamps to 0 at every level), so within cell k the
 * profile lies between edges k and k+1, and over the whole searched
 * range between edges 0 and kLevelCells. decompose()'s candidate
 * pruning relies on both.
 *
 * Storage is two structure-of-arrays matrices (linalg::SoaMatrix): one
 * aligned, block-padded column per resource (per resource and edge for
 * the grid), entries contiguous within a column. The blocked fit/prune
 * kernels in linalg/kernels.h stream these columns directly
 * (baseCol/edgeCol); the scalar accessors keep their exact pre-SoA
 * semantics.
 */
class ScaledProfileTable
{
  public:
    /**
     * Level range shared with the recommender's ternary level searches
     * (fit_level / refit / core_fit all search [kLevelMin, kLevelMax],
     * and every fixed candidate level lies inside it).
     */
    static constexpr double kLevelMin = 0.05;
    static constexpr double kLevelMax = 1.1;

    /** Equal-width level cells the range is split into. */
    static constexpr size_t kLevelCells = 4;
    static_assert(kLevelCells <= linalg::kMaxPruneCells);

    /**
     * Level of grid edge k in [0, kLevelCells]. The outer edges are
     * exactly kLevelMin and kLevelMax, so the cells cover the range.
     */
    static constexpr double edgeLevel(size_t k)
    {
        return k == kLevelCells
                   ? kLevelMax
                   : kLevelMin + (kLevelMax - kLevelMin) *
                                     static_cast<double>(k) /
                                     static_cast<double>(kLevelCells);
    }

    ScaledProfileTable() = default;

    /** Tabulate every entry's fullLoadBase profile. */
    explicit ScaledProfileTable(const TrainingSet& training);

    /** The entry count rounded up to a whole kernel block (column stride). */
    size_t paddedEntries() const { return base_.paddedRows(); }

    /**
     * Exact scaled pressure of entry e, resource index c, at `level`:
     * equals workloads::scaledPressure(entry.fullLoadBase, level)[c]
     * to the last bit, for any level.
     */
    double at(size_t e, size_t c, double level) const
    {
        return workloads::scaledPressureAt(
            base_.at(e, c), static_cast<sim::Resource>(c), level);
    }

    /**
     * at(e, c, edgeLevel(k)). Nondecreasing in k: edge 0 is the smallest
     * value over [kLevelMin, kLevelMax], edge kLevelCells the largest.
     */
    double edge(size_t e, size_t c, size_t k) const
    {
        return edges_.at(e, k * sim::kNumResources + c);
    }

    /** Padded full-load-base column for resource index c. */
    const double* baseCol(size_t c) const { return base_.col(c); }

    /** Padded column of edge k for resource index c. */
    const double* edgeCol(size_t c, size_t k) const
    {
        return edges_.col(k * sim::kNumResources + c);
    }

  private:
    linalg::SoaMatrix base_;  ///< fullLoadBase, one column per resource.
    linalg::SoaMatrix edges_; ///< Profile at each grid edge, edge-major.
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_PROFILE_TABLE_H
