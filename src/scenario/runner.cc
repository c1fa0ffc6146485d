#include "scenario/runner.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <ostream>
#include <string>

#include "attacks/coresidency.h"
#include "attacks/dos.h"
#include "colo/tournament.h"
#include "core/detector.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "serve/engine.h"
#include "sim/shard.h"
#include "util/digest.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/table.h"
#include "workloads/catalog.h"
#include "workloads/generators.h"

namespace bolt {
namespace scenario {

namespace {

// Stage/segment/repeat seeds derive from the scenario seed under the
// scenario phase keys of util/seeds.h (shared with serve and fleet so
// the phases stay disjoint across subsystems).
using util::seeds::derivedSeed;
using util::seeds::fanoutSeed;
using util::seeds::kScenarioRepeat;
using util::seeds::kScenarioSegment;
using util::seeds::kScenarioStage;
using util::enumKey;
using util::hex64;

uint64_t
stageSeed(const Scenario& s, uint64_t scenario_seed, size_t index)
{
    const Stage& stage = s.stages[index];
    if (stage.seed != 0)
        return stage.seed;
    return derivedSeed(scenario_seed, kScenarioStage, index);
}

/** The per-segment QPS multiplier of a serve stage's arrival ramp. */
double
rampFactor(const ServeStage& s, size_t segment)
{
    double n = static_cast<double>(s.segments);
    double center = (static_cast<double>(segment) + 0.5) / n;
    switch (s.shape) {
    case ArrivalShape::Steady:
        return 1.0;
    case ArrivalShape::FlashCrowd:
        // Triangle: base at the edges, peak-factor at the middle.
        return 1.0 + (s.peakFactor - 1.0) *
                         (1.0 - 2.0 * std::abs(center - 0.5));
    case ArrivalShape::Diurnal:
        // Cosine day: trough at the edges, base QPS at the middle.
        return s.floorFactor +
               (1.0 - s.floorFactor) *
                   (0.5 - 0.5 * std::cos(2.0 * 3.14159265358979323846 *
                                         center));
    }
    return 1.0;
}

struct StageOutcome
{
    uint64_t digest = 0;
    double simSeconds = 0.0;
    std::string failure; ///< A failed layer self-check; empty = ok.
};

StageOutcome
runExperimentStage(const Stage& stage, uint64_t seed, std::ostream& os,
                   const std::string& indent)
{
    const ExperimentStage& e = stage.experiment;
    core::ExperimentConfig cfg = e.config;
    cfg.isolation = sim::IsolationConfig::forLevel(e.isolation, e.platform);
    cfg.seed = seed;

    auto result = core::ControlledExperiment(cfg).run();

    StageOutcome out;
    out.digest = result.digest();
    out.simSeconds = result.simSeconds;
    os << indent << "    accuracy="
       << util::AsciiTable::percent(result.aggregateAccuracy(), 1)
       << " characteristics="
       << util::AsciiTable::percent(result.characteristicsAccuracy(), 1)
       << " scheduled=" << result.outcomes.size()
       << " departed=" << result.departedCount()
       << " digest=" << hex64(out.digest) << "\n";
    return out;
}

StageOutcome
runServeStage(const Stage& stage, uint64_t seed, std::ostream& os,
              const std::string& indent)
{
    const ServeStage& s = stage.serve;

    // Training corpus and recommender, derived from the stage seed.
    util::Rng rng(seed);
    util::Rng tr = rng.substream("train");
    auto specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(specs, tr);
    core::HybridRecommender recommender(training);

    const serve::LoadGenConfig& load = s.config.load;
    size_t segments =
        s.shape == ArrivalShape::Steady ? 1 : static_cast<size_t>(s.segments);
    uint64_t offered = 0, completed = 0, shed = 0, misses = 0,
             rejected = 0;
    double worst_p99 = 0.0;
    StageOutcome out;
    util::Fnv1a d;
    d.u64(segments);
    for (size_t i = 0; i < segments; ++i) {
        serve::ServeConfig seg = s.config;
        seg.load.requests = load.requests / segments +
                            (i < load.requests % segments ? 1 : 0);
        if (seg.load.requests == 0)
            continue;
        seg.load.offeredQps = load.offeredQps * rampFactor(s, i);
        seg.load.seed = fanoutSeed(seed, kScenarioSegment, segments, i);

        serve::ServeEngine engine(recommender, seg);
        auto result = engine.run();
        const serve::ServeStats& st = result.stats;
        d.u64(result.digest());
        offered += st.offered;
        completed += st.completed;
        shed += st.shedDeadline;
        misses += st.sloMisses;
        rejected += st.rejectedQueueFull + st.rejectedSloInfeasible;
        worst_p99 =
            std::max(worst_p99, st.latencyMs.percentile(99));
        out.simSeconds += st.makespanMs / 1000.0;
        obs::MetricsRegistry::global().add(
            obs::MetricId::kScenarioServeSegments);
    }
    out.digest = d.h;
    os << indent << "    offered=" << offered
       << " completed=" << completed << " rejected=" << rejected
       << " shed=" << shed << " slo-miss=" << misses
       << " p99=" << util::AsciiTable::num(worst_p99, 2) << "ms"
       << " digest=" << hex64(out.digest) << "\n";
    return out;
}

StageOutcome
runAttackStage(const Stage& stage, uint64_t seed, std::ostream& os,
               const std::string& indent)
{
    const AttackStage& a = stage.attack;
    StageOutcome out;
    util::Fnv1a d;
    if (a.kind == AttackKind::Dos) {
        attacks::DosTimelineConfig cfg = a.dos;
        cfg.seed = seed;
        attacks::DosTimelineExperiment experiment(cfg);
        auto bolt_run = experiment.run(true);
        auto naive_run = experiment.run(false);

        double nominal = bolt_run[5].p99Ms;
        double bolt_peak = 0.0, naive_peak = 0.0;
        bool bolt_migrated = false, naive_migrated = false;
        for (const auto& run : {&bolt_run, &naive_run}) {
            d.u64(run->size());
            for (const auto& sample : *run) {
                d.f64(sample.p99Ms);
                d.f64(sample.cpuUtil);
                d.u8(sample.migrating ? 1 : 0);
                d.u8(sample.migrated ? 1 : 0);
            }
        }
        for (const auto& sample : bolt_run) {
            bolt_peak = std::max(bolt_peak, sample.p99Ms / nominal);
            bolt_migrated = bolt_migrated || sample.migrated;
        }
        for (const auto& sample : naive_run) {
            naive_peak = std::max(naive_peak, sample.p99Ms / nominal);
            naive_migrated = naive_migrated || sample.migrated;
        }
        out.simSeconds =
            static_cast<double>(bolt_run.size() + naive_run.size());
        out.digest = d.h;
        os << indent << "    bolt-peak="
           << util::AsciiTable::num(bolt_peak, 1) << "x"
           << " naive-peak=" << util::AsciiTable::num(naive_peak, 1)
           << "x migrated-bolt=" << (bolt_migrated ? "yes" : "no")
           << " migrated-naive=" << (naive_migrated ? "yes" : "no")
           << " digest=" << hex64(out.digest) << "\n";
    } else {
        attacks::CoResidencyConfig cfg = a.coresidency;
        cfg.seed = seed;
        auto result = attacks::CoResidencyAttack(cfg).run();

        d.f64(result.placementProbability);
        d.u8(result.probeCoResident ? 1 : 0);
        d.u64(result.candidateHosts);
        d.f64(result.baselineLatencyMs);
        d.f64(result.attackLatencyMs);
        d.u8(result.victimPinpointed ? 1 : 0);
        d.f64(result.detectionTimeSec);
        d.u64(result.adversaryVmsUsed);
        d.u64(result.wavesUsed);
        out.simSeconds = result.detectionTimeSec;
        out.digest = d.h;
        os << indent << "    pinpointed="
           << (result.victimPinpointed ? "yes" : "no")
           << " waves=" << result.wavesUsed
           << " vms=" << result.adversaryVmsUsed << " time="
           << util::AsciiTable::num(result.detectionTimeSec, 1) << "s"
           << " digest=" << hex64(out.digest) << "\n";
    }
    return out;
}

StageOutcome
runFleetStage(const Stage& stage, uint64_t seed, std::ostream& os,
              const std::string& indent)
{
    sim::FleetConfig cfg = stage.fleet;
    cfg.seed = seed;

    sim::FleetCluster fleet(cfg);
    sim::FleetResult result = fleet.run();

    StageOutcome out;
    out.digest = result.digest;
    out.simSeconds = result.simSeconds;
    if (!result.consistent)
        out.failure = "fleet inconsistency: " + result.inconsistency;
    double util =
        result.epochs.empty() ? 0.0 : result.epochs.back().meanUtil;
    os << indent << "    booted=" << result.vmsBooted
       << " alive=" << result.vmsAlive
       << " arrivals=" << result.arrivals
       << " departures=" << result.departures
       << " migrations=" << result.migrations
       << " cross-shard=" << result.crossShardMigrations
       << " faults=" << result.hostFaults
       << " util=" << util::AsciiTable::num(util, 1) << "%"
       << " digest=" << hex64(out.digest) << "\n";
    return out;
}

StageOutcome
runArmsraceStage(const Stage& stage, uint64_t seed, std::ostream& os,
                 const std::string& indent)
{
    colo::TournamentConfig cfg = stage.armsrace;
    cfg.seed = seed;

    colo::TournamentResult result = colo::runTournament(cfg);
    const colo::CellResult& cell = result.cells.front();

    StageOutcome out;
    out.digest = result.digest;
    out.simSeconds = cell.simSeconds;
    os << indent << "    success=" << cell.successes << "/" << cell.reps
       << " waves=" << util::AsciiTable::num(cell.meanWaves, 1)
       << " ttc=" << util::AsciiTable::num(cell.meanTimeToCoResSec, 1)
       << "s launches=" << cell.launches
       << " migrations=" << cell.migrations << " util="
       << util::AsciiTable::num(cell.meanUtilPct, 1) << "%"
       << " digest=" << hex64(out.digest) << "\n";
    return out;
}

StageOutcome
runDetectStage(const Stage& stage, uint64_t seed, std::ostream& os,
               const std::string& indent)
{
    util::Rng rng(seed);
    util::Rng tr = rng.substream("train");
    auto specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(specs, tr);
    core::HybridRecommender recommender(training);
    core::Detector detector(recommender);

    // The compiler checked the family against the catalog.
    const workloads::FamilyDef& family =
        *workloads::findFamily(stage.detect.family);
    sim::Cluster cluster(1);
    sim::Tenant adversary{cluster.nextTenantId(), 4, true};
    cluster.placeOn(0, adversary);
    util::Rng vr = rng.substream("victim");
    auto spec = workloads::randomSpec(family, vr);
    spec.pattern = workloads::LoadPattern::constant(0.9);
    sim::Tenant victim{cluster.nextTenantId(), spec.vcpus, false};
    cluster.placeOn(0, victim);
    workloads::AppInstance instance(spec, vr.substream("inst"));

    sim::ContentionModel contention(cluster.isolation());
    core::HostEnvironment env;
    env.server = &cluster.server(0);
    env.adversary = adversary.id;
    env.contention = &contention;
    env.pressureAt = [&](double t) {
        sim::PressureMap pm;
        pm[victim.id] = instance.pressureAt(t);
        return pm;
    };
    core::DetectionRound round = detector.detectOnce(env, 0.0, rng);

    StageOutcome out;
    out.simSeconds = round.profilingSec;
    util::Fnv1a d;
    std::string hidden = spec.classLabel();
    d.str(hidden);
    d.f64(round.profilingSec);
    os << indent << "    hidden victim: " << hidden << "\n";
    if (round.guesses.empty()) {
        d.u8(0);
        out.digest = d.h;
        os << indent << "    no confident match digest=" << hex64(out.digest)
           << "\n";
        return out;
    }
    d.u8(1);
    for (const auto& [label, share] : round.guesses.front().distribution) {
        d.str(label);
        d.f64(share);
        os << indent << "      " << label << ": "
           << util::AsciiTable::percent(share, 1) << "\n";
    }
    std::string top = round.topClass();
    d.str(top);
    out.digest = d.h;
    os << indent << "    top match: " << top << " ("
       << (top == hidden ? "correct" : "incorrect")
       << ") digest=" << hex64(out.digest) << "\n";
    return out;
}

RunResult runWithSeed(const Scenario& s, uint64_t seed,
                      std::ostream& os, int depth);

StageOutcome
runIncludeStage(const Stage& stage, uint64_t scenario_seed,
                std::ostream& os, int depth, RunResult* total)
{
    // An include runs its sub-scenario under the sub-scenario's own
    // seed (explicit `seed:` overrides; repeats derive per-repetition
    // seeds), so an unchanged `- stage: include` reproduces the
    // sub-file's standalone digests exactly.
    uint64_t base = stage.seed != 0 ? stage.seed : stage.sub->seed;
    (void)scenario_seed;
    StageOutcome out;
    util::Fnv1a d;
    d.u64(static_cast<uint64_t>(stage.repeat));
    for (int rep = 0; rep < stage.repeat; ++rep) {
        uint64_t rep_seed =
            fanoutSeed(base, kScenarioRepeat,
                       static_cast<uint64_t>(stage.repeat),
                       static_cast<uint64_t>(rep));
        if (stage.repeat > 1) {
            std::string indent((depth + 1) * 2, ' ');
            os << indent << "  repeat " << (rep + 1) << "/"
               << stage.repeat << ":\n";
        }
        RunResult sub = runWithSeed(*stage.sub, rep_seed, os, depth + 1);
        d.u64(sub.digest);
        out.simSeconds += sub.simSeconds;
        total->stagesRun += sub.stagesRun;
        total->failures.insert(total->failures.end(),
                               sub.failures.begin(), sub.failures.end());
        obs::MetricsRegistry::global().add(
            obs::MetricId::kScenarioIncludesRun);
    }
    out.digest = d.h;
    return out;
}

RunResult
runWithSeed(const Scenario& s, uint64_t seed, std::ostream& os,
            int depth)
{
    std::string indent(depth * 2, ' ');
    os << indent << "scenario: " << s.name << " (seed " << seed << ", "
       << s.stages.size() << (s.stages.size() == 1 ? " stage" : " stages")
       << ")\n";

    RunResult total;
    util::Fnv1a d;
    d.u64(seed);
    d.u64(s.stages.size());
    auto& metrics = obs::MetricsRegistry::global();
    for (size_t i = 0; i < s.stages.size(); ++i) {
        const Stage& stage = s.stages[i];
        uint64_t sseed = stageSeed(s, seed, i);

        os << indent << "  [" << i << "] "
           << enumKey(kStageKindKeys, stage.kind) << " " << stage.name;
        StageOutcome outcome;
        switch (stage.kind) {
        case StageKind::Experiment: {
            const ExperimentStage& e = stage.experiment;
            os << ": servers=" << e.config.servers
               << " victims=" << e.config.victims << " policy="
               << enumKey(core::kPolicyKeys, e.config.policy)
               << " platform=" << enumKey(sim::kPlatformKeys, e.platform)
               << " isolation="
               << enumKey(sim::kIsolationKeys, e.isolation);
            if (e.config.victimObfuscation > 0.0)
                os << " obfuscation="
                   << util::AsciiTable::num(e.config.victimObfuscation, 2);
            if (e.hasFaults)
                os << " faults=on";
            os << " seed=" << sseed << "\n";
            outcome = runExperimentStage(stage, sseed, os, indent);
            break;
        }
        case StageKind::Serve: {
            const ServeStage& sv = stage.serve;
            const serve::LoadGenConfig& load = sv.config.load;
            os << ": " << enumKey(kLoopKeys, load.closedLoop) << " "
               << enumKey(kArrivalShapeKeys, sv.shape);
            if (sv.shape != ArrivalShape::Steady)
                os << " segments=" << sv.segments;
            os << " requests=" << load.requests << " qps="
               << util::AsciiTable::num(load.offeredQps, 0)
               << " seed=" << sseed << "\n";
            outcome = runServeStage(stage, sseed, os, indent);
            break;
        }
        case StageKind::Attack: {
            const AttackStage& a = stage.attack;
            os << ": " << enumKey(kAttackKindKeys, a.kind);
            if (a.kind == AttackKind::Dos)
                os << " margin=" << util::AsciiTable::num(a.dos.margin, 2)
                   << " top=" << a.dos.topResources << " duration="
                   << util::AsciiTable::num(a.dos.durationSec, 0) << "s";
            else
                os << " probes=" << a.coresidency.probeVms
                   << " waves=" << a.coresidency.maxWaves;
            os << " seed=" << sseed << "\n";
            outcome = runAttackStage(stage, sseed, os, indent);
            break;
        }
        case StageKind::Fleet: {
            const sim::FleetConfig& f = stage.fleet;
            os << ": hosts=" << f.hosts << " tenants=" << f.tenants
               << " shards=" << f.shards << " epochs=" << f.epochs
               << " seed=" << sseed << "\n";
            outcome = runFleetStage(stage, sseed, os, indent);
            break;
        }
        case StageKind::Armsrace: {
            const colo::TournamentConfig& a = stage.armsrace;
            os << ": allocator="
               << enumKey(colo::kPolicyKindKeys, a.policies.front())
               << " attacker="
               << enumKey(colo::kAttackerKeys, a.attackers.front())
               << " servers=" << a.servers << " utilization="
               << util::AsciiTable::num(a.utilLevels.front(), 0)
               << " seed=" << sseed << "\n";
            outcome = runArmsraceStage(stage, sseed, os, indent);
            break;
        }
        case StageKind::Detect:
            os << ": family=" << stage.detect.family << " seed=" << sseed
               << "\n";
            outcome = runDetectStage(stage, sseed, os, indent);
            break;
        case StageKind::Include:
            os << ": " << stage.includePath
               << " repeat=" << stage.repeat << "\n";
            outcome = runIncludeStage(stage, seed, os, depth, &total);
            break;
        }
        if (!outcome.failure.empty())
            total.failures.push_back("stage " + stage.name + ": " +
                                     outcome.failure);
        d.u64(i);
        d.u8(static_cast<uint8_t>(stage.kind));
        d.u64(outcome.digest);
        total.simSeconds += outcome.simSeconds;
        ++total.stagesRun;
        metrics.add(obs::MetricId::kScenarioStagesRun);
        metrics.observe(obs::MetricId::kScenarioStageSimSec,
                        outcome.simSeconds);
    }
    total.digest = d.h;
    os << indent << "  run digest: " << hex64(total.digest) << "\n";
    return total;
}

uint64_t
counterValue(const obs::Snapshot& snap, std::string_view name)
{
    for (const auto& c : snap.counters)
        if (name == obs::metricInfo(c.id).name)
            return c.value;
    return 0;
}

} // namespace

RunResult
runScenario(const Scenario& s, std::ostream& os)
{
    const bool has_rules = !s.sloRules.empty();
    const bool has_expects = !s.expects.empty();
    auto& metrics = obs::MetricsRegistry::global();
    auto& telemetry = obs::TimeSeriesRecorder::global();
    auto& monitor = obs::SloMonitor::global();

    // Expectations and rules auto-enable the observability they need
    // and restore the ambient state afterwards; metric expects
    // evaluate run deltas so back-to-back in-process runs (tests, the
    // scenario library gate) don't bleed into each other.
    const bool metrics_were_enabled = metrics.enabled();
    const bool telemetry_was_enabled = telemetry.enabled();
    obs::Snapshot before;
    if (has_expects) {
        metrics.setEnabled(true);
        before = metrics.snapshot();
    }
    if (has_rules) {
        // The alert timeline is golden-gated, so it must not depend on
        // --telemetry-window: force the scenario's own window width
        // and start from an empty recorder.
        obs::TelemetryConfig cfg = telemetry.config();
        cfg.windowSec = s.sloWindowSec;
        telemetry.configure(cfg);
        telemetry.setEnabled(true);
        monitor.setRules(s.sloRules);
    }

    RunResult total = runWithSeed(s, s.seed, os, 0);

    if (has_rules) {
        os << "  alerts:";
        if (monitor.events().empty()) {
            os << " none\n";
        } else {
            os << "\n";
            for (const obs::AlertEvent& ev : monitor.events()) {
                os << "    " << (ev.firing ? "fired" : "resolved")
                   << " " << ev.rule << " t=" << util::fmtDouble(ev.t)
                   << "s value=" << util::AsciiTable::num(ev.value, 2);
                if (ev.epoch > 1)
                    os << " epoch=" << ev.epoch;
                os << "\n";
            }
        }
    }
    if (has_expects) {
        obs::Snapshot after = metrics.snapshot();
        std::string file =
            std::filesystem::path(s.sourcePath.empty() ? "<scenario>"
                                                       : s.sourcePath)
                .filename()
                .string();
        int passed = 0;
        for (const ExpectSpec& e : s.expects) {
            ++total.expectsTotal;
            std::string failure;
            if (!e.metric.empty()) {
                uint64_t delta = counterValue(after, e.metric) -
                                 counterValue(before, e.metric);
                if (e.hasMin && delta < e.min)
                    failure = "metric " + e.metric + " = " +
                              std::to_string(delta) + " below min " +
                              std::to_string(e.min);
                else if (e.hasMax && delta > e.max)
                    failure = "metric " + e.metric + " = " +
                              std::to_string(delta) + " above max " +
                              std::to_string(e.max);
            } else if (e.slo == SloCheck::NoAlertsFiring) {
                if (monitor.firingCount() != 0)
                    failure = std::to_string(monitor.firingCount()) +
                              " alert(s) still firing at end of run";
            } else if (e.slo == SloCheck::Fired) {
                if (!monitor.everFired(e.rule))
                    failure = "slo rule '" + e.rule + "' never fired";
            } else { // NotFired
                if (monitor.everFired(e.rule))
                    failure = "slo rule '" + e.rule + "' fired";
            }
            if (failure.empty())
                ++passed;
            else
                total.failures.push_back(
                    file + ":" + std::to_string(e.line) +
                    ": expectation failed: " + failure);
        }
        os << "  expect: " << passed << "/" << total.expectsTotal
           << (passed == total.expectsTotal ? " ok" : " FAILED")
           << "\n";
    }

    // Restore the ambient observability state. Recorded telemetry and
    // alert events stay in place so --telemetry-out's end-of-run write
    // still sees them; without a configured output the monitor is
    // cleared so later in-process runs start inert.
    if (has_expects)
        metrics.setEnabled(metrics_were_enabled);
    if (has_rules) {
        telemetry.setEnabled(telemetry_was_enabled);
        if (obs::telemetryOutPath().empty())
            monitor.clear();
    }
    return total;
}

} // namespace scenario
} // namespace bolt
