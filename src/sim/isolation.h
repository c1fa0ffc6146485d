#ifndef BOLT_SIM_ISOLATION_H
#define BOLT_SIM_ISOLATION_H

#include <string>

#include "sim/resource.h"
#include "util/enum_keys.h"

namespace bolt {
namespace sim {

/**
 * OS-level isolation setting of a host (Section 6): how tenants are
 * packaged. Containers and VMs constrain core and memory-capacity usage
 * relative to a baremetal deployment where the Linux scheduler floats
 * tasks freely.
 *
 *   X(Sym, "key")
 */
#define BOLT_PLATFORM_CATALOG(X)                                               \
    X(Baremetal, "baremetal")                                                  \
    X(Container, "container")                                                  \
    X(VirtualMachine, "vm")

enum class Platform : uint8_t { BOLT_PLATFORM_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_PLATFORM_KEY(Sym, Key) {Platform::Sym, Key},
inline constexpr util::EnumKey<Platform> kPlatformKeys[] = {
    BOLT_PLATFORM_CATALOG(BOLT_PLATFORM_KEY)};
#undef BOLT_PLATFORM_KEY

/**
 * Rungs of the Section 6 isolation ladder (Fig. 14), each built by the
 * IsolationConfig factory in the last column:
 *
 *   X(Sym, "key", factory)
 */
#define BOLT_ISOLATION_CATALOG(X)                                              \
    X(None, "none", none)                                                      \
    X(Pinning, "pinning", withThreadPinning)                                   \
    X(Net, "net", withNetPartitioning)                                         \
    X(Mem, "mem", withMemBwPartitioning)                                       \
    X(Cache, "cache", withCachePartitioning)                                   \
    X(CoreFull, "core-full", withCoreIsolation)                                \
    X(CoreOnly, "core-only", coreIsolationOnly)

enum class IsolationLevel : uint8_t { BOLT_ISOLATION_CATALOG(BOLT_ENUMERATOR) };

#define BOLT_ISOLATION_KEY(Sym, Key, Factory) {IsolationLevel::Sym, Key},
inline constexpr util::EnumKey<IsolationLevel> kIsolationKeys[] = {
    BOLT_ISOLATION_CATALOG(BOLT_ISOLATION_KEY)};
#undef BOLT_ISOLATION_KEY

/**
 * Resource-specific isolation mechanisms evaluated in Section 6, applied
 * cumulatively in the paper's order: thread pinning, network bandwidth
 * partitioning (qdisc/HTB), DRAM bandwidth isolation, LLC partitioning
 * (Intel CAT), and finally core isolation (no physical-core sharing
 * between different tenants).
 */
struct IsolationConfig
{
    Platform platform = Platform::VirtualMachine;
    bool threadPinning = false;
    bool netBwPartitioning = false;
    bool memBwPartitioning = false;
    bool cachePartitioning = false;
    bool coreIsolation = false;

    /**
     * Fraction of a tenant's pressure on resource `r` that is visible to
     * (and felt by) other tenants on the same host. 1.0 means fully
     * shared; 0.0 means perfectly partitioned.
     *
     * Partitioning mechanisms attenuate both the adversary's measurement
     * signal and the real performance interference, which is why they
     * lower detection accuracy and improve predictability simultaneously.
     */
    double crossVisibility(Resource r) const;

    /**
     * Standard deviation of measurement noise added to a probe's pressure
     * reading, in pressure points. Scheduler float (no pinning) and
     * coarser platforms are noisier.
     */
    double measurementNoise() const;

    /**
     * Execution-time penalty factor (>= 1.0) that core isolation imposes
     * on a multi-threaded tenant whose threads now contend with each
     * other (34% average in the paper).
     */
    double selfContentionPenalty(int tenant_threads) const;

    /** Paper's cumulative ladder for Figure 14, in order. */
    static IsolationConfig none(Platform p);
    static IsolationConfig withThreadPinning(Platform p);
    static IsolationConfig withNetPartitioning(Platform p);
    static IsolationConfig withMemBwPartitioning(Platform p);
    static IsolationConfig withCachePartitioning(Platform p);
    static IsolationConfig withCoreIsolation(Platform p);
    /** Core isolation alone, without the partitioning mechanisms. */
    static IsolationConfig coreIsolationOnly(Platform p);
    /** The ladder rung `level` on platform `p`. */
    static IsolationConfig forLevel(IsolationLevel level, Platform p);
};

} // namespace sim
} // namespace bolt

#endif // BOLT_SIM_ISOLATION_H
