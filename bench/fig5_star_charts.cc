/**
 * @file
 * Reproduces Figure 5: star charts of two Hadoop jobs with very
 * different resource profiles — word count on a small dataset and a
 * recommender on a very large one — plus an unknown application the
 * recommender matches to the latter (paper: similarity 0.29 vs 0.78).
 */
#include <iomanip>
#include <iostream>

#include "core/recommender.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

void
starChart(const char* title, const sim::ResourceVector& profile)
{
    std::cout << "## " << title << "\n";
    for (sim::Resource r : sim::kAllResources) {
        int stars = static_cast<int>(profile[r] / 5.0);
        std::cout << "  " << std::left << std::setw(8)
                  << sim::resourceName(r) << " |"
                  << std::string(static_cast<size_t>(stars), '*')
                  << std::string(static_cast<size_t>(20 - stars), ' ')
                  << "| " << util::AsciiTable::num(profile[r], 0) << "\n";
    }
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(55);
    util::Rng tr = rng.substream("train");
    auto train_specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(train_specs, tr);
    core::HybridRecommender recommender(training);

    const auto* hadoop = workloads::findFamily("hadoop");
    const workloads::VariantDef* wordcount = nullptr;
    const workloads::VariantDef* recommender_app = nullptr;
    for (const auto& v : hadoop->variants) {
        if (v.name == "wordcount")
            wordcount = &v;
        if (v.name == "recommender")
            recommender_app = &v;
    }

    util::Rng inst = rng.substream("inst");
    auto wc = workloads::instantiate(*hadoop, *wordcount, "S", inst);
    auto rec = workloads::instantiate(*hadoop, *recommender_app, "L",
                                      inst);

    std::cout << "== Figure 5: per-application profiles within one "
                 "framework ==\n";
    starChart("Hadoop : wordCount : S", wc.base);
    starChart("Hadoop : recommender : L", rec.base);

    // The unknown app: another large-dataset Hadoop recommender run
    // with its own jitter.
    auto unknown = workloads::instantiate(*hadoop, *recommender_app, "L",
                                          inst);
    unknown.pattern = workloads::LoadPattern::constant(0.95);
    workloads::AppInstance instance(unknown, inst.substream("u"));
    auto observed = instance.pressureAt(30.0);
    starChart("New unknown app (observed)", observed);

    // Score the unknown profile against both reference jobs through the
    // recommender's similarity machinery.
    core::SparseObservation obs;
    sim::IsolationConfig channel =
        sim::IsolationConfig::none(sim::Platform::VirtualMachine);
    for (sim::Resource r : sim::kAllResources)
        obs.set(r, observed[r] * channel.crossVisibility(r));
    auto result = recommender.analyze(obs);

    double sim_wc = 0.0, sim_rec = 0.0;
    for (const auto& [idx, score] : result.ranking) {
        const auto& e = training.entry(idx);
        if (e.classLabel() == "hadoop:wordcount")
            sim_wc = std::max(sim_wc, score);
        if (e.classLabel() == "hadoop:recommender")
            sim_rec = std::max(sim_rec, score);
    }
    std::cout << "\nSimilarity to hadoop:wordcount   = "
              << util::AsciiTable::num(sim_wc, 2)
              << "  (paper: 0.29)\n";
    std::cout << "Similarity to hadoop:recommender = "
              << util::AsciiTable::num(sim_rec, 2)
              << "  (paper: 0.78)\n";
    std::cout << "Top match: "
              << training.entry(result.ranking.front().first).classLabel()
              << "\n";
    return sim_rec > sim_wc ? 0 : 1;
}
