#include "training.h"

#include <algorithm>

namespace bolt {
namespace core {

void
TrainingSet::add(Entry entry)
{
    matrix_.appendRow(entry.profile.toVector());
    columns_.appendRow(
        std::span<const double>(entry.profile.data(), sim::kNumResources));
    std::string label = entry.classLabel();
    auto it = std::find(distinctClasses_.begin(), distinctClasses_.end(),
                        label);
    if (it == distinctClasses_.end()) {
        classIds_.push_back(distinctClasses_.size());
        distinctClasses_.push_back(std::move(label));
    } else {
        classIds_.push_back(
            static_cast<size_t>(it - distinctClasses_.begin()));
    }
    entries_.push_back(std::move(entry));
}

TrainingSet
TrainingSet::fromSpecs(const std::vector<workloads::AppSpec>& specs,
                       util::Rng& rng, double profiling_noise,
                       const sim::IsolationConfig& channel)
{
    util::Rng stream = rng.substream("training-profiling");
    TrainingSet out;
    for (const auto& spec : specs) {
        Entry e;
        e.family = spec.family;
        e.variant = spec.variant;
        e.dataset = spec.dataset;
        e.profiledLevel = spec.pattern.level;
        sim::ResourceVector p =
            workloads::scaledPressure(spec.base, spec.pattern.level);
        sim::ResourceVector full = spec.base;
        for (sim::Resource r : sim::kAllResources) {
            double vis = channel.crossVisibility(r);
            p[r] = p[r] * vis + stream.gaussian(0.0, profiling_noise);
            full[r] =
                full[r] * vis + stream.gaussian(0.0, profiling_noise);
        }
        e.profile = p.clamped();
        e.fullLoadBase = full.clamped();
        out.add(std::move(e));
    }
    return out;
}

} // namespace core
} // namespace bolt
