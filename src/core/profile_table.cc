#include "profile_table.h"

namespace bolt {
namespace core {

ScaledProfileTable::ScaledProfileTable(const TrainingSet& training)
    : base_(training.size(), sim::kNumResources),
      edges_(training.size(), (kLevelCells + 1) * sim::kNumResources)
{
    for (size_t e = 0; e < training.size(); ++e) {
        const sim::ResourceVector& full = training.entry(e).fullLoadBase;
        for (size_t c = 0; c < sim::kNumResources; ++c) {
            base_.at(e, c) = full.at(c);
            for (size_t k = 0; k <= kLevelCells; ++k)
                edges_.at(e, k * sim::kNumResources + c) =
                    at(e, c, edgeLevel(k));
        }
    }
}

} // namespace core
} // namespace bolt
