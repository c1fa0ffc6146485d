/**
 * @file
 * Reproduces Table 2: resource-freeing attacks against an Apache
 * webserver (helper: CGI request storm saturating CPU), a network-bound
 * Hadoop job (iperf-like helper) and a memory-bound Spark k-means
 * (streaming-memory helper), with SPEC mcf as the beneficiary.
 * Paper: webserver -64% QPS / mcf +24%; Hadoop -36% exec / mcf +16%;
 * Spark -52% exec / mcf +38%.
 */
#include <iostream>
#include <string>

#include "attacks/rfa.h"
#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/catalog.h"

using namespace bolt;

namespace {

workloads::AppSpec
steady(const char* family, const char* variant, double level,
       util::Rng& rng, const char* dataset = "M")
{
    const auto* f = workloads::findFamily(family);
    const workloads::VariantDef* v = &f->variants[0];
    for (const auto& cand : f->variants)
        if (cand.name == variant)
            v = &cand;
    auto spec = workloads::instantiate(*f, *v, dataset, rng);
    spec.pattern = workloads::LoadPattern::constant(level);
    return spec;
}

} // namespace

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(77);
    sim::ContentionModel contention{
        sim::IsolationConfig::none(sim::Platform::VirtualMachine)};
    struct Row
    {
        const char* name;
        const char* family;
        const char* variant;
        sim::Resource target;
        double mcfLevel;
        const char* mcfDataset;
        const char* paper_victim;
        const char* paper_mcf;
    };
    // Each RFA is a separate launch; the beneficiary instance is sized
    // per experiment (its baseline overlap with the victim is what the
    // attack converts into gain).
    const std::vector<Row> rows = {
        {"Apache Webserver", "http server", "apache",
         sim::Resource::CPU, 0.85, "M", "-64% (QPS)", "+24%"},
        {"Hadoop (network-bound)", "hadoop", "sort",
         sim::Resource::NetBw, 0.85, "M", "-36% (Exec.)", "+16%"},
        {"Spark (k-means)", "spark", "kmeans", sim::Resource::MemBw,
         0.75, "S", "-52% (Exec.)", "+38%"},
    };

    std::cout << "== Table 2: RFA impact on victims and the mcf "
                 "beneficiary ==\n";
    util::AsciiTable table({"Victim", "Victim impact", "Paper",
                            "mcf gain", "Paper ", "Target resource"});
    for (const auto& row : rows) {
        auto mcf = steady("speccpu", "mcf", row.mcfLevel, rng,
                          row.mcfDataset);
        auto victim = steady(row.family, row.variant, 0.95, rng);
        auto outcome =
            attacks::runRfa(victim, mcf, row.target, contention);
        std::string gain = "+";
        gain += util::AsciiTable::percent(outcome.beneficiaryGain, 0);
        table.addRow(
            {row.name,
             util::AsciiTable::percent(outcome.victimChange, 0) + " (" +
                 outcome.victimMetric + ")",
             row.paper_victim, gain, row.paper_mcf,
             sim::resourceName(outcome.targetResource)});
    }
    table.print(std::cout);
    std::cout << "\n(The victim's dominant resource comes from Bolt's "
                 "detection; the helper saturates exactly that "
                 "resource.)\n";
    return 0;
}
