#include "tests/oracles/slrh_reference.hpp"

#include <algorithm>
#include <cstddef>

#include "core/churn.hpp"
#include "core/feasibility.hpp"
#include "core/placement.hpp"
#include "core/scoring.hpp"
#include "support/contract.hpp"
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

void drive_slrh_reference(const workload::Scenario& scenario,
                          const core::SlrhParams& params, sim::Schedule& schedule,
                          Cycles start_clock, Cycles end_clock,
                          core::MappingResult& result) {
  params.validate();
  AHG_EXPECTS_MSG(start_clock >= 0, "start clock must be non-negative");
  const core::ObjectiveTotals totals = core::objective_totals(scenario);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());

  for (Cycles clock = start_clock;
       !schedule.complete() && clock <= scenario.tau && clock < end_clock;
       clock += params.dt) {
    ++result.iterations;
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      if (schedule.complete()) break;
      if (!scenario.machine_available(machine, clock)) continue;
      if (schedule.machine_ready(machine) > clock) continue;
      const auto build = [&] {
        ++result.pools_built;
        return build_slrh_pool_scan(scenario, schedule, params, totals, machine,
                                    clock);
      };
      switch (params.variant) {
        case core::SlrhVariant::V1: {
          commit_first_startable(scenario, schedule, params, build(), machine,
                                 clock, 0);
          break;
        }
        case core::SlrhVariant::V2: {
          // One pool per (machine, timestep), consumed in score order.
          const auto pool = build();
          std::size_t next = 0;
          while (next < pool.size()) {
            const std::size_t mapped = commit_first_startable(
                scenario, schedule, params, pool, machine, clock, next);
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
                commit_first_startable(scenario, schedule, params, pool, machine,
                                       clock, 0) == npos) {
              break;
            }
          }
          break;
        }
      }
    }
  }
}

core::MappingResult run_slrh_reference(const workload::Scenario& scenario,
                                       const core::SlrhParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;
  auto schedule = core::make_schedule(scenario);
  core::MappingResult result;
  drive_slrh_reference(scenario, params, *schedule, 0, scenario.tau + 1, result);
  return core::finalize_result(scenario, std::move(schedule), timer,
                               std::move(result));
}

core::ChurnRunOutcome run_slrh_with_churn_reference(const workload::Scenario& scenario,
                                                    const core::SlrhParams& params,
                                                    core::ChurnRecovery recovery) {
  params.validate();
  scenario.validate();
  AHG_EXPECTS_MSG(params.secondary_only == nullptr,
                  "the churn driver owns the degrade mask");
  const Stopwatch timer;
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());

  // Every join and departure, processed at the first timestep on or after
  // it; joins first within a timestep, then machine order.
  struct Event {
    Cycles process;
    bool is_departure;
    MachineId machine;
    auto operator<=>(const Event&) const = default;
  };
  const auto next_timestep = [&](Cycles time) {
    return ((time + params.dt - 1) / params.dt) * params.dt;
  };
  std::vector<Event> events;
  for (MachineId m = 0; m < num_machines && !scenario.machine_windows.empty(); ++m) {
    const auto& window = scenario.machine_windows[static_cast<std::size_t>(m)];
    if (window.join > 0) events.push_back({next_timestep(window.join), false, m});
    if (window.depart != workload::Scenario::kNoDeparture) {
      events.push_back({next_timestep(window.depart), true, m});
    }
  }
  std::sort(events.begin(), events.end());

  std::vector<std::uint8_t> degrade_mask(scenario.num_tasks(), 0);
  core::SlrhParams run_params = params;
  if (recovery == core::ChurnRecovery::Degrade) run_params.secondary_only = &degrade_mask;
  std::vector<char> departed(scenario.num_machines(), 0);
  std::vector<MachineId> identity(scenario.num_machines());
  for (MachineId m = 0; m < num_machines; ++m) identity[static_cast<std::size_t>(m)] = m;

  core::ChurnRunOutcome outcome;
  core::MappingResult& result = outcome.result;
  auto schedule = core::make_schedule(scenario);
  Cycles current = 0;
  for (std::size_t i = 0; i < events.size();) {
    const Cycles process = events[i].process;
    drive_slrh_reference(scenario, run_params, *schedule, current, process, result);
    current = process;
    std::vector<char> departs_now(scenario.num_machines(), 0);
    bool any_departure = false;
    for (; i < events.size() && events[i].process == process; ++i) {
      if (!events[i].is_departure) continue;
      departed[static_cast<std::size_t>(events[i].machine)] = 1;
      departs_now[static_cast<std::size_t>(events[i].machine)] = 1;
      any_departure = true;
    }
    if (!any_departure) continue;

    auto replay = core::replay_survivors(scenario, *schedule, departed,
                                         std::vector<char>(scenario.num_tasks(), 0),
                                         scenario, identity);
    for (MachineId m = 0; m < num_machines; ++m) {
      if (departed[static_cast<std::size_t>(m)] == 0) continue;
      replay.schedule->block_compute(m, scenario.machine_depart(m),
                                     scenario.tau * 8 + 1);
      replay.schedule->ledger().forfeit(m);
    }
    // Orphans: unfinished work on a machine that left at this timestep.
    // Every other newly invalid subtask is work lost to the cascade.
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (replay.invalid[static_cast<std::size_t>(t)] == 0 || !schedule->is_assigned(t)) {
        continue;
      }
      const auto& a = schedule->assignment(t);
      if (departs_now[static_cast<std::size_t>(a.machine)] != 0 &&
          a.finish > scenario.machine_depart(a.machine)) {
        ++outcome.orphaned;
      } else {
        ++outcome.invalidated;
      }
      if (recovery == core::ChurnRecovery::Degrade) {
        degrade_mask[static_cast<std::size_t>(t)] = 1;
      }
    }
    for (MachineId m = 0; m < num_machines; ++m) {
      if (departs_now[static_cast<std::size_t>(m)] == 0) continue;
      ++outcome.departures_processed;
      outcome.energy_forfeited += replay.schedule->energy().forfeited(m);
    }
    schedule = std::move(replay.schedule);
  }
  drive_slrh_reference(scenario, run_params, *schedule, current, scenario.tau + 1,
                       result);
  result = core::finalize_result(scenario, std::move(schedule), timer,
                                 std::move(result));
  return outcome;
}

}  // namespace ahg::oracle
