#ifndef BOLT_CORE_MICROBENCH_H
#define BOLT_CORE_MICROBENCH_H

#include "util/rng.h"

namespace bolt {
namespace core {

/**
 * A tunable-intensity contention microbenchmark targeting one shared
 * resource (Section 3.2; modeled after the iBench suite the paper uses).
 * It holds no state: the caller passes the pressure visible on the
 * resource it probes.
 *
 * The benchmark ramps its intensity from 0 to 100% until it detects
 * pressure from co-scheduled workloads — i.e. until its own performance
 * drops below the isolated expectation. The intensity at that point
 * captures the co-residents' pressure c_i on the resource: the probe
 * starts to degrade once its demand k plus the external pressure exceed
 * the resource capacity, so k* = 100 - pressure and we report
 * c_i = 100 - k* (plus measurement noise), increasing in pressure.
 */
class Microbenchmark
{
  public:
    /** Intensity ramp granularity, in percentage points. */
    static constexpr double kStepPercent = 5.0;

    /** Relative performance drop that counts as "pressure detected". */
    static constexpr double kDegradationThreshold = 0.04;

    /** Sharpness of the probe's degradation under capacity overflow. */
    static constexpr double kDegradationSlope = 2.5;

    /**
     * Simulated probe performance (1.0 = isolated) at intensity k given
     * external visible pressure on the target resource.
     */
    static double performanceAt(double intensity, double visible_pressure);

    /**
     * Run the ramp and report the measured pressure c_i in [0, 100].
     *
     * @param visible_pressure External pressure on the target resource
     *                         visible to this probe (post-isolation).
     * @param noise_sigma      Measurement noise, pressure points.
     * @param rng              Noise stream.
     * @param intensity_scale  Fraction of full contention the probe can
     *                         generate (<1 for adversarial VMs smaller
     *                         than 4 vCPUs, Fig. 10b). Pressure below
     *                         100*(1-scale) is then undetectable.
     */
    static double measure(double visible_pressure, double noise_sigma,
                          util::Rng& rng, double intensity_scale = 1.0);

    /**
     * Virtual wall-clock cost of one ramp in seconds. A full ramp across
     * 20 intensity steps plus setup lands in the 1-2 s band so that 2-3
     * benchmarks total 2-5 s, as the paper reports.
     */
    static double rampDurationSec(double measured_pressure);
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_MICROBENCH_H
