/**
 * @file
 * Reproduces Figure 2: the probability that an unknown co-scheduled
 * workload is memcached as a function of its measured pressure in pairs
 * of resources. The paper's signature: very high L1-i plus high LLC
 * pressure means memcached with high probability, and zero disk traffic
 * is a strong indicator; the hot band around the peak corresponds to
 * memcached instances with different rd:wr ratios and value sizes plus
 * memory-bound neighbors like Spark.
 */
#include <algorithm>
#include <cmath>
#include <iostream>

#include "util/cli_flags.h"
#include "util/stats.h"
#include "util/table.h"
#include "workloads/generators.h"

using namespace bolt;

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(2);
    // Sample a large mixed population of instances at their natural
    // load levels, measure their (noisy) pressure, and bin P(memcached).
    util::Rng spec_rng = rng.substream("specs");
    util::Rng noise = rng.substream("noise");

    constexpr size_t kBins = 10;
    struct Pair
    {
        sim::Resource x, y;
        const char* label;
    };
    const std::vector<Pair> pairs = {
        {sim::Resource::L1I, sim::Resource::LLC,
         "L1-i (x) vs Last Level Cache (y)"},
        {sim::Resource::L1D, sim::Resource::CPU, "L1-d (x) vs CPU (y)"},
        {sim::Resource::MemCap, sim::Resource::MemBw,
         "Memory Capacity (x) vs Memory Bandwidth (y)"},
        {sim::Resource::DiskCap, sim::Resource::NetBw,
         "Disk Capacity (x) vs Network Bandwidth (y)"},
        {sim::Resource::DiskBw, sim::Resource::L2,
         "Disk Bandwidth (x) vs L2 Cache (y)"},
    };
    std::vector<util::Heatmap2D> maps(pairs.size(),
                                      util::Heatmap2D(0, 100, kBins));

    const auto& families = workloads::catalog();
    std::vector<double> weights;
    for (const auto& f : families)
        weights.push_back(f.userStudyWeight);

    for (int i = 0; i < 20000; ++i) {
        const auto& fam = families[spec_rng.weightedIndex(weights)];
        auto spec = workloads::randomSpec(fam, spec_rng);
        bool is_memcached = spec.family == "memcached";
        auto p = workloads::scaledPressure(
            spec.base, spec_rng.uniform(0.6, 1.0));
        for (size_t k = 0; k < pairs.size(); ++k) {
            double x = std::clamp(
                p[pairs[k].x] + noise.gaussian(0, 3.0), 0.0, 100.0);
            double y = std::clamp(
                p[pairs[k].y] + noise.gaussian(0, 3.0), 0.0, 100.0);
            maps[k].add(x, y, is_memcached);
        }
    }

    std::cout << "== Figure 2: P(co-resident is memcached | resource "
                 "pressure) ==\n";
    for (size_t k = 0; k < pairs.size(); ++k) {
        util::AsciiHeatmap hm(pairs[k].label, "0-100%", "0-100%");
        hm.print(std::cout, kBins, [&](size_t bx, size_t by) {
            return maps[k].probability(bx, by);
        });
    }

    // Headline checks mirrored from the paper's reading of the figure.
    const auto& l1i_llc = maps[0];
    double hot = l1i_llc.probability(kBins - 2, kBins - 3);
    std::cout << "P(memcached | very high L1-i, high LLC) ~ "
              << (std::isnan(hot) ? 0.0 : hot) << "\n";
    const auto& disk_net = maps[3];
    double zero_disk = disk_net.probability(0, kBins - 4);
    std::cout << "P(memcached | zero disk, high net) ~ "
              << (std::isnan(zero_disk) ? 0.0 : zero_disk) << "\n";
    return 0;
}
