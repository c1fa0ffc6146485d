#include "observation.h"

namespace bolt {
namespace core {

size_t
SparseObservation::observedCount() const
{
    size_t n = 0;
    for (const auto& v : values_)
        if (v)
            ++n;
    return n;
}

void
SparseObservation::mergeFrom(const SparseObservation& older)
{
    for (sim::Resource r : sim::kAllResources) {
        if (!older.has(r))
            continue;
        // Fresh wins; among carried entries, never let an Upper shadow
        // an Exact of the same resource.
        if (!has(r))
            set(r, older.get(r), older.bound(r));
    }
}

SparseObservation
SparseObservation::allExact() const
{
    SparseObservation out;
    for (sim::Resource r : sim::kAllResources)
        if (has(r))
            out.set(r, get(r), Bound::Exact);
    return out;
}

} // namespace core
} // namespace bolt
