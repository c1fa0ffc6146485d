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
 * value (the segment slope) alongside the profile evaluated at the
 * grid's two outer levels. at() reconstructs the profile at *any*
 * level exactly — bit-identical to building the entry's
 * workloads::scaledPressure vector — without touching the TrainingSet,
 * while lo()/hi() bound it over the whole searched level range, which
 * is what decompose()'s candidate pruning relies on (the scaling law
 * is monotone nondecreasing in level for nonnegative bases).
 *
 * Storage is three structure-of-arrays matrices (linalg::SoaMatrix):
 * one aligned, block-padded column per resource, entries contiguous
 * within a column. The blocked fit/prune kernels in linalg/kernels.h
 * stream these columns directly (baseCol/loCol/hiCol); the scalar
 * accessors keep their exact pre-SoA semantics.
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

    ScaledProfileTable() = default;

    /** Tabulate every entry's fullLoadBase profile. */
    explicit ScaledProfileTable(const TrainingSet& training);

    size_t entries() const { return base_.rows(); }

    /** entries() rounded up to a whole kernel block (column stride). */
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

    /** Smallest at(e, c, level) over level in [kLevelMin, kLevelMax]. */
    double lo(size_t e, size_t c) const { return lo_.at(e, c); }

    /** Largest at(e, c, level) over level in [kLevelMin, kLevelMax]. */
    double hi(size_t e, size_t c) const { return hi_.at(e, c); }

    /** Padded full-load-base column for resource index c. */
    const double* baseCol(size_t c) const { return base_.col(c); }

    /** Padded lower-bound column for resource index c. */
    const double* loCol(size_t c) const { return lo_.col(c); }

    /** Padded upper-bound column for resource index c. */
    const double* hiCol(size_t c) const { return hi_.col(c); }

  private:
    linalg::SoaMatrix base_; ///< fullLoadBase, one column per resource.
    linalg::SoaMatrix lo_;   ///< Profile at kLevelMin.
    linalg::SoaMatrix hi_;   ///< Profile at kLevelMax.
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_PROFILE_TABLE_H
