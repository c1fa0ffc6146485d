#include "microbench.h"

#include <algorithm>
#include <cmath>

namespace bolt {
namespace core {

double
Microbenchmark::performanceAt(double intensity, double visible_pressure)
{
    double overload =
        std::max(0.0, intensity + visible_pressure - 100.0) / 100.0;
    return 1.0 / (1.0 + kDegradationSlope * overload);
}

double
Microbenchmark::measure(double visible_pressure, double noise_sigma,
                        util::Rng& rng, double intensity_scale)
{
    // Ramp until performance falls kDegradationThreshold below isolated.
    // The probe's *effective* intensity is limited by the adversarial
    // VM's size: a small VM cannot saturate the resource, so only high
    // co-resident pressure is detectable.
    double detected_at = -1.0;
    for (double k = kStepPercent; k <= 100.0; k += kStepPercent) {
        double effective = k * std::clamp(intensity_scale, 0.0, 1.0);
        double perf = performanceAt(effective, visible_pressure);
        if (perf < 1.0 - kDegradationThreshold) {
            detected_at = effective;
            break;
        }
    }
    double ci = detected_at < 0.0 ? 0.0 : 100.0 - detected_at;
    if (ci > 0.0 || visible_pressure > 0.0)
        ci += rng.gaussian(0.0, noise_sigma);
    return std::clamp(ci, 0.0, 100.0);
}

double
Microbenchmark::rampDurationSec(double measured_pressure)
{
    // Higher pressure stops the ramp earlier; a full (empty-host) ramp
    // costs the most.
    double steps = (100.0 - measured_pressure) / kStepPercent;
    return 0.6 + 0.05 * steps;
}

} // namespace core
} // namespace bolt
