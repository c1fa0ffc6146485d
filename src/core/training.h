#ifndef BOLT_CORE_TRAINING_H
#define BOLT_CORE_TRAINING_H

#include <string>
#include <vector>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "sim/isolation.h"
#include "workloads/app.h"

namespace bolt {
namespace core {

/**
 * The recommender's knowledge base: resource profiles of previously-seen
 * workloads with their labels (Section 3.4's 120-application training
 * set). Rows are applications, columns the ten shared resources, entries
 * the pressure the application was observed to exert.
 */
class TrainingSet
{
  public:
    /** One previously-seen workload. */
    struct Entry
    {
        std::string family;   ///< e.g. "memcached".
        std::string variant;  ///< e.g. "rd-heavy".
        std::string dataset;  ///< e.g. "L".
        /** Pressure observed at `profiledLevel` input load. */
        sim::ResourceVector profile;
        /**
         * Pressure at full input load. Offline training controls the
         * load generator, so the full-load profile is known; it lets
         * the recommender predict the entry's profile at any load via
         * workloads::scaledPressure and match victims observed off-peak.
         */
        sim::ResourceVector fullLoadBase;
        double profiledLevel = 1.0;

        std::string classLabel() const { return family + ":" + variant; }
        std::string label() const
        {
            return family + ":" + variant + ":" + dataset;
        }
    };

    TrainingSet() = default;

    /** Add one profiled workload. */
    void add(Entry entry);

    /**
     * Build from application specs by *profiling* them: each spec's mean
     * full-load pressure plus a small profiling-noise draw becomes a row,
     * mimicking offline training runs.
     *
     * Profiles are recorded through the same measurement channel the
     * online probes use: the per-resource cross-visibility of `channel`
     * attenuates each reading. Training and runtime observations then
     * live in the same space; running Bolt under *stronger* isolation
     * than it was trained with is exactly what degrades its accuracy in
     * Section 6.
     */
    static TrainingSet fromSpecs(const std::vector<workloads::AppSpec>& specs,
                                 util::Rng& rng,
                                 double profiling_noise = 2.0,
                                 const sim::IsolationConfig& channel =
                                     sim::IsolationConfig::none(
                                         sim::Platform::VirtualMachine));

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const Entry& entry(size_t i) const { return entries_.at(i); }
    const std::vector<Entry>& entries() const { return entries_; }

    /**
     * Profiles as an (apps x resources) matrix for the recommender.
     * Cached: rows are appended as entries are added, so repeated calls
     * are free. The reference is invalidated by add().
     */
    const linalg::Matrix& matrix() const { return matrix_; }

    /**
     * The same profiles in structure-of-arrays form: one aligned,
     * block-padded column per resource, for the blocked kernels in
     * linalg/kernels.h (buildPearsonTable streams these columns).
     * Cached alongside matrix(); invalidated by add().
     */
    const linalg::SoaMatrix& columns() const { return columns_; }

    /**
     * Interned class id of entry i: entries share an id iff they share
     * a class label. Ids number the distinct labels in first-occurrence
     * order; the ranking loop compares classes by id.
     */
    size_t classIdOf(size_t i) const { return classIds_.at(i); }

    /** Class label for an interned class id (see classIdOf). */
    const std::string& className(size_t id) const
    {
        return distinctClasses_.at(id);
    }

  private:
    std::vector<Entry> entries_;
    linalg::Matrix matrix_;             ///< entries_ x kNumResources.
    linalg::SoaMatrix columns_;         ///< Same data, column-major SoA.
    std::vector<size_t> classIds_;      ///< Per entry, interned.
    std::vector<std::string> distinctClasses_;
};

} // namespace core
} // namespace bolt

#endif // BOLT_CORE_TRAINING_H
