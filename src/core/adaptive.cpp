#include "core/adaptive.hpp"

#include <algorithm>
#include <vector>

#include "core/churn.hpp"
#include "core/placement.hpp"
#include "core/upper_bound.hpp"
#include "support/contract.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

Weights adapt_alpha(const Weights& weights, const workload::Scenario& original,
                    const workload::Scenario& degraded) {
  const double full = compute_upper_bound(original).tecc_seconds;
  const double left = compute_upper_bound(degraded).tecc_seconds;
  AHG_EXPECTS_MSG(full > 0.0, "original grid must have capacity");
  const double ratio = std::clamp(left / full, 0.0, 1.0);
  const double alpha = weights.alpha * ratio;
  // Preserve beta's share of what alpha gave up; gamma absorbs the rest.
  const double freed = weights.alpha - alpha;
  const double denom = weights.beta + weights.gamma;
  const double beta =
      denom > 0.0 ? weights.beta + freed * (weights.beta / denom) : weights.beta;
  return Weights::make(alpha, std::min(beta, 1.0 - alpha));
}

LossRunOutcome run_slrh_with_loss(const workload::Scenario& scenario,
                                  const Weights& weights,
                                  const MachineLossEvent& event,
                                  const SlrhClockParams& clock, bool adapt) {
  scenario.validate();
  AHG_EXPECTS_MSG(event.machine >= 0 &&
                      static_cast<std::size_t>(event.machine) < scenario.num_machines(),
                  "lost machine id out of range");
  AHG_EXPECTS_MSG(scenario.num_machines() > 1, "cannot lose the only machine");
  AHG_EXPECTS_MSG(event.time >= 0 && event.time <= scenario.tau,
                  "loss time must fall inside the scheduling window");

  const Stopwatch timer;

  // --- Phase 1: run on the full grid until the loss fires. ------------------
  SlrhParams params;
  params.variant = clock.variant;
  params.weights = weights;
  params.dt = clock.dt;
  params.horizon = clock.horizon;

  LossRunOutcome outcome{MappingResult{},
                         workload::Scenario{scenario.grid.without_machine(event.machine),
                                            scenario.dag,
                                            scenario.etc.without_machine(event.machine),
                                            scenario.data, scenario.versions,
                                            scenario.tau},
                         0, 0, weights};
  MappingResult& result = outcome.result;
  const auto before = make_schedule(scenario);
  drive_slrh(scenario, params, *before, /*start_clock=*/0,
             /*end_clock=*/event.time, result);

  // --- The degraded grid: survivors keep their order, ids close the gap. ---
  std::vector<MachineId> machine_map(scenario.num_machines(), kInvalidMachine);
  MachineId next_id = 0;
  for (std::size_t m = 0; m < machine_map.size(); ++m) {
    if (static_cast<MachineId>(m) != event.machine) machine_map[m] = next_id++;
  }
  workload::Scenario& degraded = outcome.degraded_scenario;
  degraded.releases = scenario.releases;
  for (const auto& outage : scenario.link_outages) {
    if (outage.machine == event.machine) continue;  // its link died with it
    auto copy = outage;
    copy.machine = machine_map[static_cast<std::size_t>(outage.machine)];
    degraded.link_outages.push_back(copy);
  }
  degraded.validate();

  // --- Loss model: everything on the lost machine seeds the shared ---------
  // recovery (core/churn.hpp), which discards its mapped descendants and any
  // survivor whose worst-case output hold the degraded grid can't back.
  std::vector<char> seed(scenario.num_tasks(), 0);
  for (const TaskId t : before->assignment_order()) {
    const auto& a = before->assignment(t);
    if (a.machine != event.machine) continue;
    if (a.finish <= event.time) ++outcome.completed_on_lost_machine;
    seed[static_cast<std::size_t>(t)] = 1;
  }
  RecoveryReplay replay =
      replay_survivors(scenario, *before,
                       std::vector<char>(scenario.num_machines(), 0),
                       std::move(seed), degraded, machine_map);
  outcome.discarded = static_cast<std::size_t>(
      std::count_if(replay.invalid.begin(), replay.invalid.end(),
                    [](char flag) { return flag != 0; }));

  // --- Phase 2: resume on the degraded grid. ---------------------------------
  if (adapt) outcome.adapted_weights = adapt_alpha(weights, scenario, degraded);
  params.weights = outcome.adapted_weights;
  drive_slrh(degraded, params, *replay.schedule, /*start_clock=*/event.time,
             degraded.tau + 1, result);

  result = finalize_result(degraded, std::move(replay.schedule), timer,
                           std::move(result));
  return outcome;
}

}  // namespace ahg::core
