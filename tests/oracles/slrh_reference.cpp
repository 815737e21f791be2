#include "tests/oracles/slrh_reference.hpp"

#include <algorithm>
#include <cstddef>

#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "core/scoring.hpp"
#include "support/stopwatch.hpp"

namespace ahg::oracle {

namespace {

constexpr auto npos = static_cast<std::size_t>(-1);

bool degraded_to_secondary(const core::SlrhParams& params, TaskId task) noexcept {
  return params.secondary_only != nullptr &&
         (*params.secondary_only)[static_cast<std::size_t>(task)] != 0;
}

void sort_pool(std::vector<core::SlrhPoolCandidate>& pool) {
  std::sort(pool.begin(), pool.end(),
            [](const core::SlrhPoolCandidate& a, const core::SlrhPoolCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.task < b.task;
            });
}

/// Walk the ordered pool from index `from` and commit the first candidate
/// whose data-ready time on `machine` falls within the horizon, falling back
/// to the secondary version when an earlier commit of this timestep used up
/// the energy the primary needed. Returns the committed index, or npos.
std::size_t commit_first_startable(const workload::Scenario& scenario,
                                   sim::Schedule& schedule,
                                   const core::SlrhParams& params,
                                   const std::vector<core::SlrhPoolCandidate>& pool,
                                   MachineId machine, Cycles clock,
                                   std::size_t from) {
  for (std::size_t k = from; k < pool.size(); ++k) {
    const core::SlrhPoolCandidate& cand = pool[k];
    if (schedule.is_assigned(cand.task)) continue;
    VersionKind version = cand.version;
    if (!core::version_fits_energy(scenario, schedule, cand.task, machine, version)) {
      if (version != VersionKind::Primary ||
          !core::version_fits_energy(scenario, schedule, cand.task, machine,
                                     VersionKind::Secondary)) {
        continue;
      }
      version = VersionKind::Secondary;
    }
    const core::PlacementPlan plan =
        core::plan_placement(scenario, schedule, cand.task, machine, version, clock);
    if (std::max(clock, plan.arrival) <= clock + params.horizon) {
      core::commit_placement(scenario, schedule, plan);
      return k;
    }
  }
  return npos;
}

}  // namespace

std::vector<core::SlrhPoolCandidate> build_slrh_pool_scan(
    const workload::Scenario& scenario, const sim::Schedule& schedule,
    const core::SlrhParams& params, const core::ObjectiveTotals& totals,
    MachineId machine, Cycles clock, core::SlrhPoolRejects* rejects) {
  std::vector<core::SlrhPoolCandidate> pool;
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId task = 0; task < num_tasks; ++task) {
    // A subtask that has not arrived yet is invisible to the dynamic
    // heuristic (unlike the clairvoyant static baselines, which see the
    // whole application and only respect the release as a start bound).
    if (scenario.release(task) > clock) {
      if (rejects != nullptr) ++rejects->unreleased;
      continue;
    }
    if (rejects == nullptr) {
      if (!core::slrh_pool_admissible(scenario, schedule, task, machine)) continue;
    } else {
      const core::AdmissionOutcome outcome =
          core::classify_slrh_admission(scenario, schedule, task, machine);
      if (outcome != core::AdmissionOutcome::Admissible) {
        switch (outcome) {
          case core::AdmissionOutcome::AlreadyAssigned: ++rejects->assigned; break;
          case core::AdmissionOutcome::ParentsUnassigned: ++rejects->parents; break;
          case core::AdmissionOutcome::EnergyInfeasible: ++rejects->energy; break;
          case core::AdmissionOutcome::Admissible: break;
        }
        continue;
      }
    }

    // The pool admission guarantees the secondary version fits; the primary
    // version is only offered to the objective if its own worst-case energy
    // fits too.
    const double secondary_score =
        core::score_candidate(scenario, schedule, params.weights, totals, task,
                              machine, VersionKind::Secondary, clock, params.aet_sign);
    core::SlrhPoolCandidate cand{task, VersionKind::Secondary, secondary_score};
    if (!degraded_to_secondary(params, task) &&
        core::version_fits_energy(scenario, schedule, task, machine,
                                  VersionKind::Primary)) {
      const double primary_score =
          core::score_candidate(scenario, schedule, params.weights, totals, task,
                                machine, VersionKind::Primary, clock, params.aet_sign);
      if (primary_score >= secondary_score) {
        cand.version = VersionKind::Primary;
        cand.score = primary_score;
      }
    }
    pool.push_back(cand);
  }
  sort_pool(pool);
  return pool;
}

core::MappingResult run_slrh_reference(const workload::Scenario& scenario,
                                       const core::SlrhParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;
  const core::ObjectiveTotals totals = core::objective_totals(scenario);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  auto schedule = core::make_schedule(scenario);
  core::MappingResult result;

  for (Cycles clock = 0; !schedule->complete() && clock <= scenario.tau;
       clock += params.dt) {
    ++result.iterations;
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      if (schedule->complete()) break;
      if (!scenario.machine_available(machine, clock)) continue;
      if (schedule->machine_ready(machine) > clock) continue;
      const auto build = [&] {
        ++result.pools_built;
        return build_slrh_pool_scan(scenario, *schedule, params, totals, machine,
                                    clock);
      };
      switch (params.variant) {
        case core::SlrhVariant::V1: {
          commit_first_startable(scenario, *schedule, params, build(), machine,
                                 clock, 0);
          break;
        }
        case core::SlrhVariant::V2: {
          // One pool per (machine, timestep), consumed in score order.
          const auto pool = build();
          std::size_t next = 0;
          while (next < pool.size()) {
            const std::size_t mapped = commit_first_startable(
                scenario, *schedule, params, pool, machine, clock, next);
            if (mapped == npos) break;
            next = mapped + 1;
          }
          break;
        }
        case core::SlrhVariant::V3: {
          // Rebuild and re-score the pool after every commit.
          for (;;) {
            const auto pool = build();
            if (pool.empty() ||
                commit_first_startable(scenario, *schedule, params, pool, machine,
                                       clock, 0) == npos) {
              break;
            }
          }
          break;
        }
      }
    }
  }

  result.wall_seconds = timer.seconds();
  result.complete = schedule->complete();
  result.assigned = schedule->num_assigned();
  result.t100 = schedule->t100();
  result.aet = schedule->aet();
  result.tec = schedule->tec();
  result.within_tau = schedule->aet() <= scenario.tau;
  result.schedule = std::move(schedule);
  return result;
}

}  // namespace ahg::oracle
