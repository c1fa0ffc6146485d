/**
 * @file
 * Unit and property tests for the workloads library: load patterns, the
 * 53-family catalog, instantiation, generators, and the latency model.
 */
#include <set>

#include <gtest/gtest.h>

#include "workloads/catalog.h"
#include "workloads/generators.h"

using namespace bolt::workloads;
using bolt::sim::Resource;
using bolt::sim::ResourceVector;
using bolt::util::Rng;

TEST(LoadPattern, ConstantIsConstant)
{
    auto p = LoadPattern::constant(0.8);
    EXPECT_DOUBLE_EQ(p.factor(0), 0.8);
    EXPECT_DOUBLE_EQ(p.factor(12345.6), 0.8);
}

TEST(LoadPattern, DiurnalOscillatesWithinBounds)
{
    auto p = LoadPattern::diurnal(1.0, 0.2, 100.0);
    double lo = 1e9, hi = -1e9;
    for (double t = 0; t < 200; t += 1.0) {
        double f = p.factor(t);
        lo = std::min(lo, f);
        hi = std::max(hi, f);
        EXPECT_GE(f, 0.2 - 1e-9);
        EXPECT_LE(f, 1.0 + 1e-9);
    }
    EXPECT_NEAR(lo, 0.2, 0.02);
    EXPECT_NEAR(hi, 1.0, 0.02);
}

TEST(LoadPattern, BurstyRespectsDutyCycle)
{
    auto p = LoadPattern::bursty(1.0, 0.1, 10.0, 0.3);
    int high = 0;
    for (double t = 0; t < 100; t += 0.1) {
        if (p.factor(t) > 0.5)
            ++high;
    }
    EXPECT_NEAR(high / 1000.0, 0.3, 0.02);
}

TEST(LoadPattern, PhaseShiftsPattern)
{
    auto a = LoadPattern::bursty(1.0, 0.1, 10.0, 0.5, 0.0);
    auto b = LoadPattern::bursty(1.0, 0.1, 10.0, 0.5, 5.0);
    EXPECT_NE(a.factor(0.0), b.factor(0.0));
}

TEST(Catalog, HasFiftyThreeFamilies)
{
    // Figure 11 lists 53 distinct application labels.
    EXPECT_EQ(catalog().size(), 53u);
}

TEST(Catalog, FamiliesAreWellFormed)
{
    std::set<std::string> names;
    for (const auto& f : catalog()) {
        EXPECT_FALSE(f.variants.empty()) << f.name;
        EXPECT_TRUE(names.insert(f.name).second)
            << "duplicate family " << f.name;
        EXPECT_GE(f.minVcpus, 1);
        EXPECT_LE(f.minVcpus, f.maxVcpus);
        EXPECT_GT(f.userStudyWeight, 0.0);
        for (const auto& v : f.variants)
            for (Resource r : bolt::sim::kAllResources) {
                EXPECT_GE(v.base[r], 0.0) << f.name;
                EXPECT_LE(v.base[r], 100.0) << f.name;
            }
        if (f.interactive) {
            EXPECT_GT(f.nominalP99Ms, 0.0) << f.name;
        }
    }
}

TEST(Catalog, Table1ClassesPresent)
{
    std::set<std::string> classes;
    for (const auto& f : catalog())
        if (!f.table1Class.empty())
            classes.insert(f.table1Class);
    EXPECT_EQ(classes, (std::set<std::string>{"memcached", "Hadoop",
                                              "Spark", "Cassandra",
                                              "speccpu2006"}));
}

TEST(Catalog, FindFamily)
{
    EXPECT_NE(findFamily("memcached"), nullptr);
    EXPECT_EQ(findFamily("does-not-exist"), nullptr);
    for (const auto& name : controlledExperimentFamilies())
        EXPECT_NE(findFamily(name), nullptr) << name;
}

TEST(Catalog, TrainingSpaceMatchesPaperSplit)
{
    // Desktop-session tools are outside the training space; server-side
    // frameworks are inside (Section 4's label/no-label split).
    EXPECT_TRUE(findFamily("hadoop")->inTraining);
    EXPECT_TRUE(findFamily("memcached")->inTraining);
    EXPECT_FALSE(findFamily("email")->inTraining);
    EXPECT_FALSE(findFamily("photoshop")->inTraining);
}

TEST(Catalog, MemcachedSignatureMatchesFigure2)
{
    // Figure 2: memcached has very high L1-i and high LLC pressure and
    // zero disk traffic.
    const auto* mc = findFamily("memcached");
    for (const auto& v : mc->variants) {
        EXPECT_GT(v.base[Resource::L1I], 70.0);
        EXPECT_GT(v.base[Resource::LLC], 60.0);
        EXPECT_DOUBLE_EQ(v.base[Resource::DiskBw], 0.0);
        EXPECT_DOUBLE_EQ(v.base[Resource::DiskCap], 0.0);
    }
}

TEST(Instantiate, DatasetScalesFootprint)
{
    Rng rng(1);
    const auto* f = findFamily("hadoop");
    auto small = instantiate(*f, f->variants[0], "S", rng);
    auto large = instantiate(*f, f->variants[0], "L", rng);
    EXPECT_LT(small.base[Resource::MemCap], large.base[Resource::MemCap]);
    // Compute intensity is dataset-invariant.
    EXPECT_DOUBLE_EQ(small.base[Resource::CPU],
                     large.base[Resource::CPU]);
}

TEST(Instantiate, SensitivityDerivedInUnitRange)
{
    Rng rng(2);
    for (const auto& f : catalog()) {
        auto spec = randomSpec(f, rng);
        for (Resource r : bolt::sim::kAllResources) {
            EXPECT_GE(spec.sensitivity[r], 0.0);
            EXPECT_LE(spec.sensitivity[r], 1.0);
        }
        EXPECT_GE(spec.vcpus, f.minVcpus);
        EXPECT_LE(spec.vcpus, f.maxVcpus);
    }
}

TEST(Instantiate, LabelFormats)
{
    Rng rng(3);
    const auto* f = findFamily("spark");
    auto spec = instantiate(*f, f->variants[0], "M", rng);
    EXPECT_EQ(spec.classLabel(), "spark:kmeans");
    EXPECT_EQ(spec.label(), "spark:kmeans:M");
}

TEST(ScaledPressure, CapacityIsLoadInvariant)
{
    ResourceVector base(80.0);
    auto low = scaledPressure(base, 0.3);
    EXPECT_NEAR(low[Resource::NetBw], 24.0, 1e-9);
    // Footprints stay resident at low load.
    EXPECT_NEAR(low[Resource::MemCap], 68.0, 1e-9);
    EXPECT_NEAR(low[Resource::DiskCap], 68.0, 1e-9);
}

TEST(AppInstance, PressureTracksLoadAndStaysBounded)
{
    Rng rng(5);
    const auto* f = findFamily("memcached");
    auto spec = instantiate(*f, f->variants[0], "M", rng);
    spec.pattern = LoadPattern::constant(0.5);
    AppInstance inst(spec, rng.substream("i"));
    for (double t = 0; t < 50; t += 5) {
        auto p = inst.pressureAt(t);
        for (Resource r : bolt::sim::kAllResources) {
            EXPECT_GE(p[r], 0.0);
            EXPECT_LE(p[r], 100.0);
        }
    }
    auto mean = inst.meanPressureAt(0.0);
    EXPECT_NEAR(mean[Resource::L1I], spec.base[Resource::L1I] * 0.5,
                1e-9);
}

TEST(AppInstance, LatencyModel)
{
    Rng rng(6);
    const auto* f = findFamily("memcached");
    auto spec = instantiate(*f, f->variants[0], "M", rng);
    AppInstance inst(spec, rng.substream("i"));
    double nominal = inst.p99LatencyMs(1.0);
    EXPECT_DOUBLE_EQ(nominal, spec.nominalP99Ms);
    EXPECT_GT(inst.p99LatencyMs(2.0), nominal * 6.0); // 2^2.9 ~ 7.5
    // Saturation bounds the tail.
    EXPECT_LE(inst.p99LatencyMs(50.0),
              spec.nominalP99Ms * kTailSaturation + 1e-9);
    EXPECT_LT(AppInstance::throughputFactor(2.0), 1.0);
    EXPECT_GT(inst.meanLatencyMs(3.0), inst.meanLatencyMs(1.0));
}

TEST(Generators, TrainingSetSizeAndCoverage)
{
    Rng rng(7);
    auto specs = trainingSet(rng);
    EXPECT_EQ(specs.size(), 120u);
    // Only training-space families appear.
    std::set<std::string> families;
    for (const auto& s : specs) {
        EXPECT_TRUE(findFamily(s.family)->inTraining) << s.family;
        families.insert(s.family);
    }
    // Coverage spans many families (Figure 4).
    EXPECT_GE(families.size(), 20u);
}

TEST(Generators, TrainingSpansLoadLevels)
{
    Rng rng(8);
    auto specs = trainingSet(rng);
    double lo = 1.0, hi = 0.0;
    for (const auto& s : specs) {
        lo = std::min(lo, s.pattern.level);
        hi = std::max(hi, s.pattern.level);
    }
    EXPECT_LT(lo, 0.5);
    EXPECT_GT(hi, 0.85);
}

TEST(Generators, ControlledTestSetComposition)
{
    Rng rng(9);
    auto specs = controlledTestSet(rng);
    EXPECT_EQ(specs.size(), 108u);
    for (const auto& s : specs) {
        auto& families = controlledExperimentFamilies();
        EXPECT_NE(std::find(families.begin(), families.end(), s.family),
                  families.end())
            << s.family;
        EXPECT_GE(s.pattern.level, 0.75);
    }
}

TEST(Generators, TrainTestDrawsAreIndependent)
{
    Rng rng(10);
    auto train = trainingSet(rng);
    auto test = controlledTestSet(rng);
    // Instances must not be identical draws: compare (label, level).
    size_t identical = 0;
    for (const auto& tr : train)
        for (const auto& te : test)
            if (tr.label() == te.label() &&
                tr.pattern.level == te.pattern.level)
                ++identical;
    EXPECT_EQ(identical, 0u);
}

TEST(Generators, UserStudyShape)
{
    Rng rng(11);
    auto jobs = userStudy(rng);
    EXPECT_EQ(jobs.size(), 436u);
    std::set<int> users;
    size_t in_training = 0;
    for (const auto& j : jobs) {
        users.insert(j.user);
        EXPECT_GE(j.submitSec, 0.0);
        EXPECT_LE(j.submitSec + j.durationSec, 4 * 3600.0 + 1e-6);
        EXPECT_GT(j.durationSec, 0.0);
        in_training += findFamily(j.spec.family)->inTraining ? 1 : 0;
    }
    EXPECT_EQ(users.size(), 20u);
    // Most, but not all, submitted jobs come from the training space —
    // the gap is what separates Figures 12a and 12b.
    double frac =
        static_cast<double>(in_training) / static_cast<double>(jobs.size());
    EXPECT_GT(frac, 0.55);
    EXPECT_LT(frac, 0.92);
    // Jobs are sorted by submission time.
    for (size_t i = 1; i < jobs.size(); ++i)
        EXPECT_LE(jobs[i - 1].submitSec, jobs[i].submitSec);
}

TEST(Generators, PhasedVictimSequence)
{
    Rng rng(12);
    auto victim = phasedVictim(rng, 80.0);
    ASSERT_EQ(victim.phases.size(), 5u);
    EXPECT_EQ(victim.phases[0].family, "speccpu");
    EXPECT_EQ(victim.phases[1].classLabel(), "hadoop:svm");
    EXPECT_EQ(victim.phases[2].family, "spark");
    EXPECT_EQ(victim.phases[3].family, "memcached");
    EXPECT_EQ(victim.phases[4].family, "cassandra");
    EXPECT_EQ(victim.at(0.0).family, "speccpu");
    EXPECT_EQ(victim.at(100.0).family, "hadoop");
    EXPECT_EQ(victim.at(1e6).family, "cassandra"); // clamps to last
    EXPECT_DOUBLE_EQ(victim.totalSec(), 400.0);
    for (const auto& p : victim.phases)
        EXPECT_EQ(p.vcpus, 4);
}

/** Property sweep: every family instantiates at every dataset scale. */
class CatalogSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CatalogSweep, InstantiatesAcrossDatasets)
{
    const auto& family = catalog()[static_cast<size_t>(GetParam())];
    Rng rng(100 + GetParam());
    for (const char* ds : {"S", "M", "L"}) {
        for (const auto& v : family.variants) {
            auto spec = instantiate(family, v, ds, rng);
            EXPECT_EQ(spec.family, family.name);
            for (Resource r : bolt::sim::kAllResources) {
                EXPECT_GE(spec.base[r], 0.0);
                EXPECT_LE(spec.base[r], 100.0);
                EXPECT_GT(spec.spread[r], 0.0);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, CatalogSweep,
                         ::testing::Range(0, 53));
