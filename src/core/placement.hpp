#pragma once
// Placement planning and committing.
//
// plan_placement() answers, WITHOUT mutating the schedule: "if (task,
// version) were mapped to this machine with no action earlier than
// `not_before`, when would its inputs arrive, when could it start, and what
// would everything cost?" It schedules each incoming transfer on the
// parent's tx channel and the target's rx channel (one outgoing and one
// incoming transfer at a time per machine — paper assumptions (b)/(c)),
// honouring existing bookings through overlay copies of the affected
// timelines.
//
// commit_placement() applies a plan: records transfers (settling the
// parents' worst-case energy reservations), records the computation, and
// reserves worst-case outgoing-communication energy for the task's own
// children (paper §IV's conservative feasibility rule — see DESIGN.md §4).
//
// SLRH passes not_before = current clock ("the program would not allow the
// scheduler to look backward in time"); Max-Max passes 0 and naturally
// exploits schedule holes because planning uses earliest-fit searches.

#include <memory>
#include <vector>

#include "sim/schedule.hpp"
#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class TaskLedger;
}  // namespace ahg::obs

namespace ahg::core {

struct CommPlan {
  TaskId parent = kInvalidTask;
  MachineId from_machine = kInvalidMachine;
  Cycles start = 0;
  Cycles duration = 0;
  double bits = 0.0;
  double energy = 0.0;
};

struct PlacementPlan {
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;
  VersionKind version = VersionKind::Primary;
  Cycles start = 0;
  Cycles duration = 0;
  Cycles arrival = 0;  ///< when the last input lands on the machine
  double exec_energy = 0.0;
  std::vector<CommPlan> comms;  ///< cross-machine transfers (bits > 0 only)
  /// Parents whose edge carried data but needs no transfer (same machine):
  /// their worst-case reservations are released on commit.
  std::vector<TaskId> released_parents;

  Cycles finish() const noexcept { return start + duration; }
  double comm_energy() const noexcept {
    double total = 0.0;
    for (const auto& c : comms) total += c.energy;
    return total;
  }
};

/// Plan (task, version) on `machine`, all actions at or after `not_before`;
/// execution additionally starts no earlier than the subtask's release time
/// (input transfers may pre-stage data before the release).
/// Requires: task unassigned, every parent assigned.
PlacementPlan plan_placement(const workload::Scenario& scenario,
                             const sim::Schedule& schedule, TaskId task,
                             MachineId machine, VersionKind version,
                             Cycles not_before);

/// A lower bound on plan_placement(...).arrival for any version of `task`
/// on `machine`, from one walk over the parents: a local or empty edge
/// contributes the parent's finish, a cross-machine edge
/// max(not_before, parent finish) + its transfer time. Channel contention
/// can only delay a transfer past that, never advance it, so the bound never
/// exceeds the planned arrival; it is equal when no transfer waits on a
/// booking. No overlay, sort or allocation. Same requirements as
/// plan_placement.
Cycles arrival_lower_bound(const workload::Scenario& scenario,
                           const sim::Schedule& schedule, TaskId task,
                           MachineId machine, Cycles not_before);

/// Construct a schedule for a scenario with the scenario's link outages
/// pre-booked on the tx/rx channels (so every placement plans around them).
/// All heuristic runners build their schedules through this.
std::shared_ptr<sim::Schedule> make_schedule(const workload::Scenario& scenario);

/// Apply a plan produced by plan_placement() against the SAME schedule state
/// (no intervening mutations). Charges energy, books timelines, settles the
/// parents' reservations, and reserves worst-case outgoing energy for the
/// task's children. The caller must have verified version_fits_energy().
void commit_placement(const workload::Scenario& scenario, sim::Schedule& schedule,
                      const PlacementPlan& plan);

/// Record a just-committed plan into the task ledger: the admitted /
/// transfer / executing / completed transitions plus one causal input edge
/// per parent (timed cross-machine transfers from plan.comms; instantaneous
/// same-machine handoffs at the parent's finish from plan.released_parents).
/// Call AFTER commit_placement, against the same schedule. Pure observation.
void record_placement(obs::TaskLedger& ledger, const sim::Schedule& schedule,
                      const PlacementPlan& plan, Cycles decision_clock);

}  // namespace ahg::core
