/**
 * @file
 * Reproduces Figure 4: coverage of the resource-characteristics space
 * by the 120-application training set, shown as CPU-vs-memory and
 * network-vs-storage pressure scatters. The paper's point: the training
 * set spans the space so any new profile finds a nearby neighbor.
 */
#include <iostream>

#include "core/training.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

void
scatter(const char* title, const std::vector<std::pair<double, double>>& pts)
{
    // 20x20 occupancy grid over [0,100]^2 rendered as ASCII.
    constexpr int kBins = 20;
    std::vector<std::vector<int>> grid(kBins, std::vector<int>(kBins, 0));
    for (auto [x, y] : pts) {
        int bx = std::min(kBins - 1, static_cast<int>(x / 100.0 * kBins));
        int by = std::min(kBins - 1, static_cast<int>(y / 100.0 * kBins));
        ++grid[static_cast<size_t>(by)][static_cast<size_t>(bx)];
    }
    std::cout << "## " << title << " ('.'=1, 'o'=2-3, 'O'=4+)\n";
    for (int by = kBins - 1; by >= 0; --by) {
        std::cout << "  |";
        for (int bx = 0; bx < kBins; ++bx) {
            int c = grid[static_cast<size_t>(by)][static_cast<size_t>(bx)];
            std::cout << (c == 0 ? ' ' : c == 1 ? '.' : c <= 3 ? 'o' : 'O');
        }
        std::cout << "|\n";
    }
    std::cout << "  +" << std::string(kBins, '-') << "+\n";
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(2017);
    auto specs = workloads::trainingSet(rng);
    auto training = core::TrainingSet::fromSpecs(specs, rng);

    std::vector<std::pair<double, double>> cpu_mem, net_disk;
    for (const auto& e : training.entries()) {
        cpu_mem.emplace_back(e.profile[sim::Resource::CPU],
                             e.profile[sim::Resource::MemBw]);
        net_disk.emplace_back(e.profile[sim::Resource::NetBw],
                              e.profile[sim::Resource::DiskBw]);
    }

    std::cout << "== Figure 4: training-set coverage (" << training.size()
              << " apps) ==\n";
    scatter("CPU pressure (x) vs Memory pressure (y)", cpu_mem);
    scatter("Network pressure (x) vs Storage pressure (y)", net_disk);

    // Quantify coverage: fraction of 25-point quadrants populated.
    int populated = 0;
    for (int qx = 0; qx < 4; ++qx)
        for (int qy = 0; qy < 4; ++qy) {
            bool hit = false;
            for (auto [x, y] : cpu_mem)
                hit |= x >= qx * 25 && x < (qx + 1) * 25 &&
                       y >= qy * 25 && y < (qy + 1) * 25;
            populated += hit ? 1 : 0;
        }
    std::cout << "CPU x Memory quadrants populated: " << populated
              << "/16\n";
    return 0;
}
