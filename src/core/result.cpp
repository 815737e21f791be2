#include "core/result.hpp"

#include "support/event_log.hpp"
#include "support/flight_recorder.hpp"

namespace ahg::core {

MappingResult finalize_result(const workload::Scenario& scenario,
                              std::shared_ptr<sim::Schedule> schedule,
                              const Stopwatch& timer, MappingResult result) {
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

std::string scenario_shape_note(const workload::Scenario& scenario) {
  return "|T|=" + std::to_string(scenario.num_tasks()) +
         ", machines=" + std::to_string(scenario.num_machines()) +
         ", tau=" + std::to_string(scenario.tau);
}

void emit_run_begin(obs::Sink* sink, const std::string& heuristic,
                    const Weights& weights, const std::string& note) {
  if (sink == nullptr || !sink->wants(obs::EventKind::RunBegin)) return;
  obs::Event event;
  event.kind = obs::EventKind::RunBegin;
  event.heuristic = heuristic;
  event.alpha = weights.alpha;
  event.beta = weights.beta;
  event.gamma = weights.gamma;
  event.note = note;
  sink->emit(event);
}

void emit_run_end(obs::Sink* sink, const std::string& heuristic,
                  const Weights& weights, const MappingResult& result,
                  const std::string& note) {
  if (sink == nullptr || !sink->wants(obs::EventKind::RunEnd)) return;
  obs::Event event;
  event.kind = obs::EventKind::RunEnd;
  event.heuristic = heuristic;
  event.alpha = weights.alpha;
  event.beta = weights.beta;
  event.gamma = weights.gamma;
  event.t100 = result.t100;
  event.assigned = result.assigned;
  event.aet = result.aet;
  event.feasible = result.feasible();
  event.wall_seconds = result.wall_seconds;
  event.note = note;
  sink->emit(event);
}

void fill_frame_state(obs::Frame& frame, const sim::Schedule& schedule,
                      const Weights& weights, const ObjectiveTotals& totals,
                      AetSign aet_sign) {
  const ObjectiveTerms terms = objective_terms(
      weights, ObjectiveState{schedule.t100(), schedule.tec(), schedule.aet()},
      totals, aet_sign);
  frame.term_t100 = terms.t100;
  frame.term_tec = terms.tec;
  frame.term_aet = terms.aet;
  frame.objective = terms.value;
  frame.assigned = schedule.num_assigned();
  frame.t100 = schedule.t100();
  frame.tec = schedule.tec();
  frame.aet = schedule.aet();
  const sim::EnergyLedger& energy = schedule.energy();
  const auto num_machines = static_cast<MachineId>(schedule.num_machines());
  frame.battery_fraction.clear();
  frame.busy_until.clear();
  frame.battery_fraction.reserve(schedule.num_machines());
  frame.busy_until.reserve(schedule.num_machines());
  for (MachineId m = 0; m < num_machines; ++m) {
    const double capacity = energy.capacity(m);
    frame.battery_fraction.push_back(
        capacity > 0.0 ? energy.available(m) / capacity : 0.0);
    frame.busy_until.push_back(schedule.machine_ready(m));
  }
}

}  // namespace ahg::core
