#ifndef BOLT_SIM_RESOURCE_H
#define BOLT_SIM_RESOURCE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bolt {
namespace sim {

/**
 * Catalog of the ten shared resources Bolt profiles (Section 3.2 of the
 * paper): L1 instruction and data caches, L2 and last-level cache, CPU
 * (functional units), memory capacity and bandwidth, network bandwidth,
 * and disk capacity and bandwidth.
 *
 * Single source of truth, X-macro style like the obs metric catalog:
 * the enum, lane count, display names, core/uncore split and the
 * capacity-vs-rate scaling law below are all generated from this table.
 * Adding a resource is one line here; every derived table, the
 * static_asserts, and the fixed-size ResourceVector pick it up.
 *
 *   X(Sym,      "name",    Domain, Kind)
 *
 * Domain: Core resources are per-physical-core — only visible to a probe
 * whose vCPU shares a physical core (other hyperthread) with a victim
 * thread. Uncore resources aggregate across every co-resident on a host.
 *
 * Kind: Capacity resources (resident footprints) hold their allocation
 * regardless of request load; Rate resources scale with it — see
 * workloads::isLoadInvariant / scaledPressureAt.
 */
#define BOLT_RESOURCE_CATALOG(X)                                               \
    X(L1I, "L1-i", Core, Rate)       /* L1 instruction cache.      */          \
    X(L1D, "L1-d", Core, Rate)       /* L1 data cache.             */          \
    X(L2, "L2", Core, Rate)          /* Private L2 cache.          */          \
    X(CPU, "CPU", Core, Rate)        /* Functional units / compute.*/          \
    X(LLC, "LLC", Uncore, Rate)      /* Shared last-level cache.   */          \
    X(MemCap, "MemCap", Uncore, Capacity) /* Memory capacity.      */          \
    X(MemBw, "MemBw", Uncore, Rate)  /* Memory bandwidth.          */          \
    X(NetBw, "NetBw", Uncore, Rate)  /* Network bandwidth.         */          \
    X(DiskCap, "DiskCap", Uncore, Capacity) /* Disk capacity.      */          \
    X(DiskBw, "DiskBw", Uncore, Rate) /* Disk bandwidth.           */

enum class Resource : uint8_t {
#define BOLT_RESOURCE_ENUMERATOR(Sym, Name, Domain, Kind) Sym,
    BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_ENUMERATOR)
#undef BOLT_RESOURCE_ENUMERATOR
};

/** Number of modeled shared resources — the catalog's row count. */
constexpr size_t kNumResources = 0
#define BOLT_RESOURCE_COUNT_ONE(Sym, Name, Domain, Kind) +1
    BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_COUNT_ONE)
#undef BOLT_RESOURCE_COUNT_ONE
    ;

static_assert(kNumResources == 10,
              "Bolt's pipeline is specified over ten shared resources; "
              "a catalog edit must be a deliberate model change");

/** All resources in declaration order. */
constexpr std::array<Resource, kNumResources> kAllResources = {
#define BOLT_RESOURCE_LIST(Sym, Name, Domain, Kind) Resource::Sym,
    BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_LIST)
#undef BOLT_RESOURCE_LIST
};

static_assert(kNumResources == kAllResources.size(),
              "kNumResources must equal the generated lane count");

namespace detail {

enum class ResourceDomain : uint8_t { Core, Uncore };
enum class ResourceKind : uint8_t { Rate, Capacity };

constexpr std::array<ResourceDomain, kNumResources> kResourceDomains = {
#define BOLT_RESOURCE_DOMAIN(Sym, Name, Domain, Kind) ResourceDomain::Domain,
    BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_DOMAIN)
#undef BOLT_RESOURCE_DOMAIN
};

constexpr std::array<ResourceKind, kNumResources> kResourceKinds = {
#define BOLT_RESOURCE_KIND(Sym, Name, Domain, Kind) ResourceKind::Kind,
    BOLT_RESOURCE_CATALOG(BOLT_RESOURCE_KIND)
#undef BOLT_RESOURCE_KIND
};

constexpr size_t kNumCoreResources = [] {
    size_t n = 0;
    for (ResourceDomain d : kResourceDomains)
        n += (d == ResourceDomain::Core) ? 1 : 0;
    return n;
}();

} // namespace detail

/** Index of a resource in vectors/matrices. */
constexpr size_t
index(Resource r)
{
    return static_cast<size_t>(r);
}

/** Whether a resource is core-private (leaks only via hyperthreads). */
constexpr bool
isCoreResource(Resource r)
{
    return detail::kResourceDomains[index(r)] ==
           detail::ResourceDomain::Core;
}

/**
 * Whether a resource is a resident capacity footprint (memory, disk)
 * rather than a load-scaled rate — the catalog's Kind column.
 */
constexpr bool
isCapacityResource(Resource r)
{
    return detail::kResourceKinds[index(r)] ==
           detail::ResourceKind::Capacity;
}

/** Core (per-physical-core) resources, leak only across hyperthreads. */
constexpr std::array<Resource, detail::kNumCoreResources> kCoreResources =
    [] {
        std::array<Resource, detail::kNumCoreResources> out{};
        size_t j = 0;
        for (Resource r : kAllResources)
            if (isCoreResource(r))
                out[j++] = r;
        return out;
    }();

/** Uncore (host-wide) resources. */
constexpr std::array<Resource, kNumResources - detail::kNumCoreResources>
    kUncoreResources = [] {
        std::array<Resource, kNumResources - detail::kNumCoreResources>
            out{};
        size_t j = 0;
        for (Resource r : kAllResources)
            if (!isCoreResource(r))
                out[j++] = r;
        return out;
    }();

static_assert(kCoreResources.size() + kUncoreResources.size() ==
                  kNumResources,
              "every resource is either core or uncore");
static_assert(kCoreResources.size() == 4 &&
                  kCoreResources.front() == Resource::L1I &&
                  kCoreResources.back() == Resource::CPU,
              "the paper's core/uncore split starts with the four "
              "per-core resources in declaration order");

/**
 * Alignment of the fixed-size lane types below. One cache line, which
 * also satisfies any 256/512-bit vector load the optional SIMD kernels
 * (linalg/kernels) issue against ResourceVector::data().
 */
constexpr size_t kResourceVectorAlign = 64;

/**
 * Fixed-size per-resource scratch lanes: one T per catalog row, aligned
 * and sized at compile time. This is the replacement for the ad-hoc
 * `double buf[kNumResources]` parallel C-arrays the recommender used to
 * carry — one named lane bundle per concern instead of bare buffers.
 */
template <typename T>
struct alignas(kResourceVectorAlign) LaneArray
{
    std::array<T, kNumResources> lanes{};

    T& operator[](size_t i) { return lanes[i]; }
    const T& operator[](size_t i) const { return lanes[i]; }
    T& operator[](Resource r) { return lanes[index(r)]; }
    const T& operator[](Resource r) const { return lanes[index(r)]; }

    T* data() { return lanes.data(); }
    const T* data() const { return lanes.data(); }

    auto begin() { return lanes.begin(); }
    auto end() { return lanes.end(); }
    auto begin() const { return lanes.begin(); }
    auto end() const { return lanes.end(); }

    void fill(const T& v) { lanes.fill(v); }
    static constexpr size_t size() { return kNumResources; }

    bool operator==(const LaneArray&) const = default;
};

/** Short display name ("L1-i", "LLC", "MemBw", ...). */
const std::string& resourceName(Resource r);

/**
 * Pressure (or sensitivity) across the ten resources, each entry in
 * [0, 100] as in the paper's c_i convention: 100 means the tenant takes
 * over the entire resource (or the entire partition it was allocated).
 *
 * A compile-time-sized value type: the lane count comes from the
 * catalog above (static_assert'ed against kNumResources), storage is
 * cache-line aligned, and data() exposes the contiguous lanes so the
 * batched linalg kernels can treat a ResourceVector as one row of a
 * structure-of-arrays block without a copy.
 */
class alignas(kResourceVectorAlign) ResourceVector
{
  public:
    /** All-zero vector. */
    ResourceVector() : values_{} {}

    /** Broadcast constructor. */
    explicit ResourceVector(double fill) { values_.fill(fill); }

    /** From a raw array in Resource declaration order. */
    explicit ResourceVector(const std::array<double, kNumResources>& v)
        : values_(v)
    {
    }

    double& operator[](Resource r) { return values_[index(r)]; }
    double operator[](Resource r) const { return values_[index(r)]; }
    double& at(size_t i) { return values_.at(i); }
    double at(size_t i) const { return values_.at(i); }

    /** Contiguous lanes in Resource declaration order. */
    double* data() { return values_.data(); }
    const double* data() const { return values_.data(); }

    /** Element-wise sum (not clamped; see clamped()). */
    ResourceVector& operator+=(const ResourceVector& o);

    /** Copy with every entry clamped into [lo, hi]. */
    ResourceVector clamped(double lo = 0.0, double hi = 100.0) const;

    /** Sum over all entries. */
    double total() const;

    /** Resource with the largest entry (ties: lowest index). */
    Resource dominant() const;

    /** Entries sorted by decreasing pressure. */
    std::vector<Resource> byDecreasingPressure() const;

    /** Convert to a plain vector (for the recommender matrices). */
    std::vector<double> toVector() const;

    /** Build from a plain 10-entry vector. */
    static ResourceVector fromVector(const std::vector<double>& v);

  private:
    std::array<double, kNumResources> values_;
};

static_assert(sizeof(ResourceVector) % kResourceVectorAlign == 0 &&
                  alignof(ResourceVector) == kResourceVectorAlign,
              "ResourceVector must stay a fixed-size aligned value type");

} // namespace sim
} // namespace bolt

#endif // BOLT_SIM_RESOURCE_H
