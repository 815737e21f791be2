#include "core/churn.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/placement.hpp"
#include "core/scoring.hpp"
#include "sim/comm.hpp"
#include "support/contract.hpp"
#include "support/flight_recorder.hpp"
#include "support/stopwatch.hpp"
#include "support/task_ledger.hpp"

namespace ahg::core {

const char* to_string(ChurnRecovery recovery) noexcept {
  switch (recovery) {
    case ChurnRecovery::Remap: return "remap";
    case ChurnRecovery::Degrade: return "degrade";
  }
  return "unknown";
}

namespace {

constexpr Cycles kNoDeparture = workload::Scenario::kNoDeparture;

/// First SLRH grid point at or after `time` — where a departure that fired
/// between timesteps is actually discovered ("react at the next dT").
Cycles next_timestep(Cycles time, Cycles dt) {
  return ((time + dt - 1) / dt) * dt;
}

/// Which assigned subtasks lost their work to the departures seen so far.
/// Seed: `extra_seed` (a lost machine's tasks, unaffordable holds) plus the
/// unfinished subtasks on departed machines (the orphans). A COMPLETED
/// subtask on a departed machine survives only while every data-carrying
/// output edge is satisfied: consumed on the same machine by a surviving
/// child, or transmitted cross-machine before the departure to a surviving
/// child. Invalidation cascades to every mapped descendant (through all
/// edges), so kept = assigned && !invalid stays ancestor-closed and the
/// independent validator passes on the rebuilt schedule. The cascade can in
/// turn unsatisfy another departed machine's outputs, hence the fixpoint.
std::vector<char> compute_invalid(const workload::Scenario& scenario,
                                  const sim::Schedule& schedule,
                                  const std::vector<char>& departed,
                                  const std::vector<char>& extra_seed) {
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  std::vector<char> invalid = extra_seed;
  const auto is_departed = [&](MachineId m) {
    return departed[static_cast<std::size_t>(m)] != 0;
  };
  const auto flag = [&](TaskId t) -> char& {
    return invalid[static_cast<std::size_t>(t)];
  };

  for (TaskId t = 0; t < num_tasks; ++t) {
    if (!schedule.is_assigned(t)) continue;
    const auto& a = schedule.assignment(t);
    if (is_departed(a.machine) && a.finish > scenario.machine_depart(a.machine)) {
      flag(t) = 1;
    }
  }

  std::unordered_map<std::uint64_t, Cycles> comm_finish;
  for (const auto& ev : schedule.comm_events()) {
    comm_finish.emplace(sim::edge_key(ev.from_task, ev.to_task), ev.finish);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    // Downward closure in topological order: one pass settles a whole chain.
    for (const TaskId t : scenario.dag.topological_order()) {
      if (!schedule.is_assigned(t) || flag(t) != 0) continue;
      for (const TaskId parent : scenario.dag.parents(t)) {
        if (flag(parent) != 0) {
          flag(t) = 1;
          changed = true;
          break;
        }
      }
    }
    // Output survival on departed machines.
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (!schedule.is_assigned(t) || flag(t) != 0) continue;
      const auto& a = schedule.assignment(t);
      if (!is_departed(a.machine)) continue;
      const Cycles depart = scenario.machine_depart(a.machine);
      bool lost = false;
      for (const TaskId child : scenario.dag.children(t)) {
        if (scenario.edge_bits(t, child, a.version) <= 0.0) continue;
        if (!schedule.is_assigned(child) || flag(child) != 0) {
          lost = true;
          break;
        }
        if (schedule.assignment(child).machine == a.machine) continue;
        const auto it = comm_finish.find(sim::edge_key(t, child));
        if (it == comm_finish.end() || it->second > depart) {
          lost = true;
          break;
        }
      }
      if (lost) {
        flag(t) = 1;
        changed = true;
      }
    }
  }
  return invalid;
}

/// Replay the surviving mapping of `before` onto a fresh schedule over
/// `target` (original times, machine ids through `machine_map`) and re-take
/// the worst-case communication reservations kept tasks owe their unmapped
/// children, priced on the target grid.
///
/// Re-taking a reservation can FAIL: when the edge's original hold was
/// settled cheaply (or released on-machine) the freed headroom may have been
/// spent since, and the machine can no longer underwrite the worst-case
/// retransmission of that output. The work is then effectively lost — the
/// placement invariant (every data edge to an unmapped child is backed by a
/// worst-case hold on the parent's machine) is what makes future child
/// placements safe, so it cannot be waived. `*unaffordable` reports the
/// first such task (kInvalidTask when the rebuild is clean); the caller
/// folds it into the invalidation fixpoint and retries.
std::shared_ptr<sim::Schedule> rebuild_schedule(const workload::Scenario& source,
                                                const sim::Schedule& before,
                                                const std::vector<char>& invalid,
                                                const workload::Scenario& target,
                                                const std::vector<MachineId>& machine_map,
                                                TaskId* unaffordable) {
  constexpr double kLedgerEps = 1e-9;  // sim/energy.cpp's overdraw tolerance
  *unaffordable = kInvalidTask;
  auto schedule = make_schedule(target);
  const auto kept = [&](TaskId t) {
    return before.is_assigned(t) && invalid[static_cast<std::size_t>(t)] == 0;
  };
  // Schedule::add_* reject an unmapped (kInvalidMachine) target id.
  const auto to_target = [&](MachineId m) {
    return machine_map[static_cast<std::size_t>(m)];
  };
  for (const auto& ev : before.comm_events()) {
    if (!kept(ev.from_task) || !kept(ev.to_task)) continue;
    schedule->add_comm(ev.from_task, ev.to_task, to_target(ev.from_machine),
                       to_target(ev.to_machine), ev.start, ev.finish - ev.start,
                       ev.bits, ev.energy);
  }
  for (const TaskId t : before.assignment_order()) {
    if (!kept(t)) continue;
    const auto& a = before.assignment(t);
    schedule->add_assignment(t, to_target(a.machine), a.version, a.start,
                             a.finish - a.start, a.energy);
  }
  const auto num_tasks = static_cast<TaskId>(source.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (!kept(t)) continue;
    const auto& a = before.assignment(t);
    const MachineId machine = to_target(a.machine);
    for (const TaskId child : source.dag.children(t)) {
      if (schedule->is_assigned(child)) continue;
      const double bits = source.edge_bits(t, child, a.version);
      if (bits <= 0.0) continue;
      // A kept task on a departed machine cannot reach here: a data edge to
      // an unmapped child would have invalidated it.
      const auto& spec = target.grid.machine(machine);
      const Cycles wc = sim::worst_case_transfer_cycles(bits, spec, target.grid);
      const double hold = sim::transfer_energy(spec, wc);
      if (hold > schedule->energy().available(machine) + kLedgerEps) {
        *unaffordable = t;
        return schedule;
      }
      schedule->ledger().reserve(machine, sim::edge_key(t, child), hold);
    }
  }
  return schedule;
}

obs::TermBreakdown terms_delta(const Weights& weights, const ObjectiveTotals& totals,
                               AetSign aet_sign, const sim::Schedule& before,
                               const sim::Schedule& after) {
  const ObjectiveTerms b = objective_terms(
      weights, ObjectiveState{before.t100(), before.tec(), before.aet()}, totals,
      aet_sign);
  const ObjectiveTerms a = objective_terms(
      weights, ObjectiveState{after.t100(), after.tec(), after.aet()}, totals,
      aet_sign);
  return {a.t100 - b.t100, a.tec - b.tec, a.aet - b.aet, a.value - b.value};
}

}  // namespace

RecoveryReplay replay_survivors(const workload::Scenario& source,
                                const sim::Schedule& before,
                                const std::vector<char>& departed,
                                std::vector<char> seed,
                                const workload::Scenario& target,
                                const std::vector<MachineId>& machine_map) {
  AHG_EXPECTS_MSG(target.num_tasks() == source.num_tasks(),
                  "recovery target must carry the same tasks");
  AHG_EXPECTS_MSG(seed.size() == source.num_tasks() &&
                      departed.size() == source.num_machines() &&
                      machine_map.size() == source.num_machines(),
                  "recovery masks must match the source scenario");
  // Each round that finds an unaffordable hold invalidates one more task,
  // which frees energy and may cascade, so this ends within |T| rounds.
  RecoveryReplay out;
  for (;;) {
    out.invalid = compute_invalid(source, before, departed, seed);
    TaskId unaffordable = kInvalidTask;
    out.schedule = rebuild_schedule(source, before, out.invalid, target,
                                    machine_map, &unaffordable);
    if (unaffordable == kInvalidTask) return out;
    seed[static_cast<std::size_t>(unaffordable)] = 1;
  }
}

ChurnRunOutcome run_slrh_with_churn(const workload::Scenario& scenario,
                                    const SlrhParams& params,
                                    ChurnRecovery recovery) {
  params.validate();
  scenario.validate();
  AHG_EXPECTS_MSG(params.secondary_only == nullptr,
                  "the churn driver owns the degrade mask");

  // No presence windows, or windows with no events inside them: the plain
  // run (the sweep's availability check is vacuously true).
  ChurnRunOutcome outcome;
  struct Pending {
    Cycles process;
    MachineId machine;
    bool is_departure;
  };
  std::vector<Pending> pending;
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  for (MachineId m = 0; m < num_machines && !scenario.machine_windows.empty(); ++m) {
    const auto& w = scenario.machine_windows[static_cast<std::size_t>(m)];
    if (w.join > 0) pending.push_back({next_timestep(w.join, params.dt), m, false});
    if (w.depart != kNoDeparture) {
      pending.push_back({next_timestep(w.depart, params.dt), m, true});
    }
  }
  if (pending.empty()) {
    outcome.result = run_slrh(scenario, params);
    return outcome;
  }
  std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
    if (a.process != b.process) return a.process < b.process;
    if (a.is_departure != b.is_departure) return !a.is_departure;  // joins first
    return a.machine < b.machine;
  });

  const Stopwatch timer;
  const ObjectiveTotals totals = objective_totals(scenario);
  const std::string heuristic_name = to_string(params.variant);
  obs::Sink* sink = params.sink;
  obs::FlightRecorder* recorder = params.recorder;

  std::vector<std::uint8_t> degrade_mask(scenario.num_tasks(), 0);
  SlrhParams run_params = params;
  if (recovery == ChurnRecovery::Degrade) run_params.secondary_only = &degrade_mask;

  emit_run_begin(sink, heuristic_name, params.weights,
                 "churn=" + std::string(to_string(recovery)) + ", windows=" +
                     std::to_string(scenario.machine_windows.size()));

  auto schedule = make_schedule(scenario);
  MappingResult& result = outcome.result;
  std::vector<char> departed(scenario.num_machines(), 0);
  std::vector<MachineId> identity_map(scenario.num_machines());
  std::iota(identity_map.begin(), identity_map.end(), MachineId{0});

  Cycles current = 0;
  std::size_t i = 0;
  while (i < pending.size()) {
    const Cycles process = pending[i].process;
    // A departure never interrupts the current segment — the loop reacts at
    // the next timestep, like any observer of an ad hoc grid.
    drive_slrh(scenario, run_params, *schedule, current, process, result);
    current = process;

    std::vector<MachineId> new_departures;
    for (; i < pending.size() && pending[i].process == process; ++i) {
      if (pending[i].is_departure) {
        departed[static_cast<std::size_t>(pending[i].machine)] = 1;
        new_departures.push_back(pending[i].machine);
      } else if (sink != nullptr && sink->wants(obs::EventKind::MachineJoin)) {
        obs::Event event;
        event.kind = obs::EventKind::MachineJoin;
        event.heuristic = heuristic_name;
        event.clock = process;
        event.machine = pending[i].machine;
        sink->emit(event);
      }
    }
    if (new_departures.empty()) continue;

    const double recovery_t0 = recorder != nullptr ? recorder->now_seconds() : 0.0;

    auto [invalid, rebuilt] =
        replay_survivors(scenario, *schedule, departed,
                         std::vector<char>(scenario.num_tasks(), 0), scenario,
                         identity_map);
    // Seal every departed machine: compute blocked past any reachable clock
    // (defense in depth — the sweep already skips absentees) and the
    // stranded battery forfeited.
    for (MachineId m = 0; m < num_machines; ++m) {
      if (departed[static_cast<std::size_t>(m)] == 0) continue;
      rebuilt->block_compute(m, scenario.machine_depart(m), scenario.tau * 8 + 1);
      rebuilt->ledger().forfeit(m);
    }

    // Batch tallies: orphans are the unfinished subtasks on the machines
    // that departed THIS timestep; everything else newly invalid is
    // completed (or queued elsewhere) work lost to the cascade.
    const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
    std::vector<std::size_t> orphans_on(scenario.num_machines(), 0);
    std::size_t batch_orphaned = 0;
    std::size_t batch_invalid = 0;
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (invalid[static_cast<std::size_t>(t)] == 0 || !schedule->is_assigned(t)) {
        continue;
      }
      ++batch_invalid;
      const auto& a = schedule->assignment(t);
      const bool new_machine =
          std::find(new_departures.begin(), new_departures.end(), a.machine) !=
          new_departures.end();
      const bool is_orphan =
          new_machine && a.finish > scenario.machine_depart(a.machine);
      if (params.ledger != nullptr) {
        // Transition clock = the grid point the loss is DISCOVERED at, same
        // convention as the recovery span and the event stream.
        if (is_orphan) {
          params.ledger->on_orphaned(t, process);
        } else {
          params.ledger->on_invalidated(t, process);
        }
        if (recovery == ChurnRecovery::Degrade) {
          params.ledger->on_degraded(t, process);
        }
      }
      if (is_orphan) {
        ++orphans_on[static_cast<std::size_t>(a.machine)];
        ++batch_orphaned;
        if (sink != nullptr && sink->wants(obs::EventKind::OrphanReturn)) {
          obs::Event event;
          event.kind = obs::EventKind::OrphanReturn;
          event.heuristic = heuristic_name;
          event.clock = process;
          event.machine = a.machine;
          event.task = t;
          sink->emit(event);
        }
      }
      if (recovery == ChurnRecovery::Degrade) {
        degrade_mask[static_cast<std::size_t>(t)] = 1;
      }
    }

    const obs::TermBreakdown delta = terms_delta(params.weights, totals,
                                                 params.aet_sign, *schedule, *rebuilt);
    for (const MachineId m : new_departures) {
      ++outcome.departures_processed;
      const double forfeited = rebuilt->energy().forfeited(m);
      outcome.energy_forfeited += forfeited;
      if (sink != nullptr && sink->wants(obs::EventKind::MachineDeparture)) {
        obs::Event event;
        event.kind = obs::EventKind::MachineDeparture;
        event.heuristic = heuristic_name;
        event.clock = process;
        event.machine = m;
        event.orphaned = orphans_on[static_cast<std::size_t>(m)];
        event.invalidated = batch_invalid - batch_orphaned;
        event.energy_forfeited = forfeited;
        event.terms = delta;
        sink->emit(event);
      }
    }
    outcome.orphaned += batch_orphaned;
    outcome.invalidated += batch_invalid - batch_orphaned;
    schedule = std::move(rebuilt);

    if (recorder != nullptr) {
      // Every frame sampled from here on carries the updated cumulative
      // churn tallies; the recovery itself shows up as a span.
      recorder->add_span("churn_recovery", recovery_t0,
                         recorder->now_seconds() - recovery_t0, process);
      recorder->set_churn_context(
          static_cast<std::uint64_t>(outcome.departures_processed),
          static_cast<std::uint64_t>(outcome.orphaned),
          static_cast<std::uint64_t>(outcome.invalidated),
          outcome.energy_forfeited);
    }
  }

  drive_slrh(scenario, run_params, *schedule, current, scenario.tau + 1, result);

  result = finalize_result(scenario, std::move(schedule), timer, std::move(result));
  emit_run_end(sink, heuristic_name, params.weights, result,
               "departures=" + std::to_string(outcome.departures_processed));
  return outcome;
}

StaticChurnReplay replay_static_under_churn(const workload::Scenario& scenario,
                                            const sim::Schedule& schedule) {
  scenario.validate();
  StaticChurnReplay out;

  std::unordered_map<std::uint64_t, const sim::CommEvent*> comms;
  for (const auto& ev : schedule.comm_events()) {
    comms.emplace(sim::edge_key(ev.from_task, ev.to_task), &ev);
  }
  const auto inside_window = [&](MachineId m, Cycles start, Cycles finish) {
    return scenario.machine_join(m) <= start && finish <= scenario.machine_depart(m);
  };

  std::vector<char> done(scenario.num_tasks(), 0);
  for (const TaskId t : scenario.dag.topological_order()) {
    if (!schedule.is_assigned(t)) continue;
    const auto& a = schedule.assignment(t);
    if (!inside_window(a.machine, a.start, a.finish)) continue;
    bool ok = true;
    for (const TaskId parent : scenario.dag.parents(t)) {
      if (done[static_cast<std::size_t>(parent)] == 0) {
        ok = false;
        break;
      }
      const auto& pa = schedule.assignment(parent);
      if (scenario.edge_bits(parent, t, pa.version) <= 0.0 ||
          pa.machine == a.machine) {
        continue;
      }
      const auto it = comms.find(sim::edge_key(parent, t));
      if (it == comms.end() ||
          !inside_window(it->second->from_machine, it->second->start,
                         it->second->finish) ||
          !inside_window(it->second->to_machine, it->second->start,
                         it->second->finish)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    done[static_cast<std::size_t>(t)] = 1;
    ++out.completed;
    if (a.version == VersionKind::Primary) ++out.t100_completed;
    out.aet = std::max(out.aet, a.finish);
    out.tec += a.energy;
  }
  for (const auto& ev : schedule.comm_events()) {
    if (done[static_cast<std::size_t>(ev.from_task)] != 0 &&
        done[static_cast<std::size_t>(ev.to_task)] != 0) {
      out.tec += ev.energy;
    }
  }
  return out;
}

}  // namespace ahg::core
