#include "resource.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bolt {
namespace sim {

const std::string&
resourceName(Resource r)
{
    static const std::array<std::string, kNumResources> names = {
#define BOLT_RESOURCE_NAME(Sym, Name, Domain, Kind) Name,
        BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_NAME)
#undef BOLT_RESOURCE_NAME
    };
    return names.at(index(r));
}

ResourceVector&
ResourceVector::operator+=(const ResourceVector& o)
{
    for (size_t i = 0; i < kNumResources; ++i)
        values_[i] += o.values_[i];
    return *this;
}

ResourceVector
ResourceVector::clamped(double lo, double hi) const
{
    ResourceVector out = *this;
    for (auto& v : out.values_)
        v = std::clamp(v, lo, hi);
    return out;
}

double
ResourceVector::total() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

Resource
ResourceVector::dominant() const
{
    size_t best = 0;
    for (size_t i = 1; i < kNumResources; ++i)
        if (values_[i] > values_[best])
            best = i;
    return static_cast<Resource>(best);
}

std::vector<Resource>
ResourceVector::byDecreasingPressure() const
{
    std::vector<Resource> order(kAllResources.begin(), kAllResources.end());
    std::stable_sort(order.begin(), order.end(),
                     [&](Resource a, Resource b) {
                         return values_[index(a)] > values_[index(b)];
                     });
    return order;
}

std::vector<double>
ResourceVector::toVector() const
{
    return {values_.begin(), values_.end()};
}

ResourceVector
ResourceVector::fromVector(const std::vector<double>& v)
{
    if (v.size() != kNumResources)
        throw std::invalid_argument("ResourceVector::fromVector size");
    ResourceVector out;
    for (size_t i = 0; i < kNumResources; ++i)
        out.values_[i] = v[i];
    return out;
}

} // namespace sim
} // namespace bolt
