/**
 * @file
 * Reproduces Figure 12: the EC2-style user study. 436 user-submitted
 * jobs run on 200 32-vCPU instances over a 4-hour window, each hosting
 * a 4-vCPU Bolt VM. Bolt periodically detects co-residents on every
 * instance. Paper results: 277/436 jobs correctly labeled by name (12a),
 * 385/436 with correctly identified resource characteristics (12b), up
 * to ~6 concurrently-active jobs per instance with 14 instances unused
 * (12c). Unseen application types (email clients, image editors, ...)
 * cannot be labeled but their characteristics are still recovered.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "core/detector.h"
#include "core/experiment.h"
#include "sim/cluster.h"
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
    util::Rng rng(2017);

    // Train once with the same 120-app set as the controlled experiment.
    util::Rng tr = rng.substream("train");
    auto train_specs = workloads::trainingSet(tr);
    auto training = core::TrainingSet::fromSpecs(train_specs, tr);
    core::HybridRecommender recommender(training);
    core::Detector detector(recommender);

    // 200 instances; c3.8xlarge-like hosts modeled as 16 cores x 2 HT,
    // 4 vCPUs reserved for Bolt on each.
    constexpr size_t kInstances = 200;
    util::Rng job_rng = rng.substream("jobs");
    auto jobs = workloads::userStudy(job_rng);

    // Interval placement: each job goes to the instance with the fewest
    // concurrently-active jobs (capped), mimicking the study's
    // least-loaded default.
    struct Placed
    {
        workloads::UserJob job;
        size_t instance;
        workloads::AppInstance app;
        bool labelCorrect = false;
        bool charCorrect = false;
    };
    std::vector<Placed> placed;
    std::vector<std::vector<size_t>> on_instance(kInstances);
    util::Rng inst_rng = rng.substream("instances");

    auto overlaps = [&](const workloads::UserJob& a,
                        const workloads::UserJob& b) {
        return a.submitSec < b.submitSec + b.durationSec &&
               b.submitSec < a.submitSec + a.durationSec;
    };
    // Users may pick their instances (§4); most reuse a small personal
    // set of VMs they already launched, which is what concentrates jobs
    // and produces the 1-6 active co-residents of Fig. 12c.
    std::vector<std::vector<size_t>> user_instances(21);
    for (int u = 1; u <= 20; ++u)
        for (int k = 0; k < 8; ++k)
            user_instances[static_cast<size_t>(u)].push_back(
                inst_rng.index(kInstances));
    for (const auto& job : jobs) {
        // ~2/3 of jobs reuse the user's own instances; the rest go
        // through the default least-loaded pick over the whole pool.
        size_t best;
        if (inst_rng.bernoulli(0.65)) {
            const auto& prefer =
                user_instances[static_cast<size_t>(job.user)];
            best = prefer[0];
            int best_load = 1 << 20;
            for (size_t i : prefer) {
                int load = 0;
                for (size_t idx : on_instance[i])
                    load += overlaps(placed[idx].job, job) ? 1 : 0;
                if (load < best_load) {
                    best_load = load;
                    best = i;
                }
            }
        } else {
            best = 0;
            int best_load = 1 << 20;
            size_t start = inst_rng.index(kInstances);
            for (size_t k = 0; k < kInstances; ++k) {
                size_t i = (start + k) % kInstances;
                int load = 0;
                for (size_t idx : on_instance[i])
                    load += overlaps(placed[idx].job, job) ? 1 : 0;
                if (load < best_load) {
                    best_load = load;
                    best = i;
                }
                if (load == 0)
                    break;
            }
        }
        size_t idx = placed.size();
        placed.push_back(
            Placed{job, best,
                   workloads::AppInstance(
                       job.spec, inst_rng.substream("app", idx)),
                   false, false});
        on_instance[best].push_back(idx);
    }

    // Bolt samples each instance while jobs are active: every job's
    // window gets two detection opportunities.
    sim::ContentionModel contention{
        sim::IsolationConfig::none(sim::Platform::VirtualMachine)};
    util::Rng drng = rng.substream("detect");
    int detect_round = 0;

    for (size_t i = 0; i < kInstances; ++i) {
        if (on_instance[i].empty())
            continue;
        // Build the host: Bolt + up to the concurrently-active jobs.
        for (int pass = 0; pass < 2; ++pass) {
            for (size_t idx : on_instance[i]) {
                auto& target = placed[idx];
                if (target.labelCorrect && target.charCorrect)
                    continue;
                double t = target.job.submitSec +
                           drng.uniform(0.15, 0.85) *
                               target.job.durationSec;

                // Active set at time t.
                std::vector<size_t> active;
                for (size_t j : on_instance[i]) {
                    const auto& w = placed[j].job;
                    if (w.submitSec <= t &&
                        t < w.submitSec + w.durationSec)
                        active.push_back(j);
                }
                if (active.empty())
                    continue;

                sim::Cluster host(1, 16, 2);
                sim::Tenant bolt_vm{host.nextTenantId(), 4, true};
                host.placeOn(0, bolt_vm);
                std::map<size_t, sim::TenantId> ids;
                for (size_t j : active) {
                    sim::Tenant tnt{host.nextTenantId(),
                                    placed[j].job.spec.vcpus, false};
                    if (host.placeOn(0, tnt))
                        ids[j] = tnt.id;
                }
                core::HostEnvironment env;
                env.server = &host.server(0);
                env.adversary = bolt_vm.id;
                env.contention = &contention;
                env.pressureAt = [&](double when) {
                    sim::PressureMap pm;
                    for (const auto& [j, id] : ids)
                        pm[id] = placed[j].app.pressureAt(when);
                    return pm;
                };
                auto round = detector.detectOnce(
                    env, t, drng, nullptr, detect_round++);
                for (const auto& [j, id] : ids) {
                    auto& p = placed[j];
                    if (core::roundMatchesClass(round, p.job.spec) &&
                        p.job.spec.labeledInTraining) {
                        p.labelCorrect = true;
                    }
                    if (core::roundMatchesCharacteristics(round,
                                                          p.job.spec))
                        p.charCorrect = true;
                }
            }
        }
    }

    size_t labeled = 0, chars = 0, unused = 0;
    std::map<int, std::pair<size_t, size_t>> by_active;
    for (const auto& p : placed) {
        labeled += p.labelCorrect ? 1 : 0;
        chars += p.charCorrect ? 1 : 0;
    }
    for (size_t i = 0; i < kInstances; ++i)
        unused += on_instance[i].empty() ? 1 : 0;

    // Figure 12c: concurrently-active jobs per instance sampled hourly.
    util::Summary active_stats;
    int max_active = 0;
    for (size_t i = 0; i < kInstances; ++i) {
        for (double t = 0; t < 4 * 3600.0; t += 1800.0) {
            int active = 0;
            for (size_t idx : on_instance[i]) {
                const auto& w = placed[idx].job;
                active += w.submitSec <= t &&
                                  t < w.submitSec + w.durationSec
                              ? 1
                              : 0;
            }
            if (!on_instance[i].empty())
                active_stats.add(active);
            max_active = std::max(max_active, active);
        }
    }

    std::cout << "== Figure 12: user-study detection ==\n";
    util::AsciiTable table({"Metric", "Measured", "Paper"});
    table.addRow({"Jobs submitted", std::to_string(placed.size()),
                  "436"});
    table.addRow({"Correctly labeled by name (12a)",
                  std::to_string(labeled), "277"});
    table.addRow({"Correct resource characteristics (12b)",
                  std::to_string(chars), "385"});
    table.addRow({"Unused instances (12c)", std::to_string(unused),
                  "14"});
    table.addRow({"Max concurrently-active jobs/instance",
                  std::to_string(max_active), "~6"});
    table.print(std::cout);

    std::cout << "\nLabel accuracy "
              << util::AsciiTable::percent(
                     static_cast<double>(labeled) / placed.size())
              << " (paper 63.5%), characteristics "
              << util::AsciiTable::percent(
                     static_cast<double>(chars) / placed.size())
              << " (paper 88.3%)\n";
    return 0;
}
