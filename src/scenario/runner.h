#ifndef BOLT_SCENARIO_RUNNER_H
#define BOLT_SCENARIO_RUNNER_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace bolt {
namespace scenario {

/** Aggregate outcome of one scenario run. */
struct RunResult
{
    /**
     * FNV-1a fold of (effective seed, stage count, and per stage: index,
     * kind, stage digest) where each stage digest is the underlying
     * layer's Sim-class result digest (ExperimentResult::digest(),
     * folded ServeResult::digest()s per ramp segment, the full attack
     * timeline / result fields, the detection round's victim class,
     * distribution and top match, or the sub-scenario's run digests for
     * include stages). Bit-identical at any --threads — the value the
     * scenario goldens gate on.
     */
    uint64_t digest = 0;
    /** Stages executed, include-stage sub-scenarios included. */
    int stagesRun = 0;
    /** Accumulated virtual seconds across stages (Sim-class). */
    double simSeconds = 0.0;
    /** `expect:` items evaluated (top-level scenario only; include
     *  stages run sub-scenarios without their expect/slo blocks). */
    int expectsTotal = 0;
    /** One "<file>:<line>: expectation failed: ..." per failed item
     *  and one "stage <name>: ..." per failed layer self-check (a fleet
     *  inconsistency); non-empty makes bolt_cli exit 3. */
    std::vector<std::string> failures;

    bool ok() const
    {
        return failures.empty();
    }
};

/**
 * Execute a compiled scenario: each stage drives the matching layer
 * (core::ControlledExperiment, serve::ServeEngine, attacks::*,
 * sim::FleetCluster, colo::runTournament, core::Detector) with a
 * per-stage counter-based seed, printing a short Sim-class summary per
 * stage to `os` (the scenario goldens capture exactly this output) and
 * recording scenario.* metrics.
 *
 * Stage seeds: an explicit `seed:` wins; otherwise
 * `Rng::stream(scenario seed, {stage phase, index})`. Include stages
 * run their sub-scenario under its own seed (so an unchanged include
 * reproduces the sub-scenario's standalone digests) unless the stage
 * sets `seed:`; `repeat: N` derives a distinct seed per repetition.
 */
RunResult runScenario(const Scenario& s, std::ostream& os);

} // namespace scenario
} // namespace bolt

#endif // BOLT_SCENARIO_RUNNER_H
