#include "observation.h"

#include <algorithm>

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

size_t
SparseObservation::exactCount() const
{
    size_t n = 0;
    for (sim::Resource r : sim::kAllResources)
        if (isExact(r))
            ++n;
    return n;
}

double
SparseObservation::observedTotal() const
{
    double total = 0.0;
    for (const auto& v : values_)
        if (v)
            total += *v;
    return total;
}

SparseObservation
SparseObservation::minus(const sim::ResourceVector& profile) const
{
    SparseObservation out;
    for (sim::Resource r : sim::kAllResources) {
        if (has(r))
            out.set(r, std::max(0.0, get(r) - profile[r]), Bound::Exact);
    }
    return out;
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
