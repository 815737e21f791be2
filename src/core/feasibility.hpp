#pragma once
// Energy feasibility rules (paper §IV).
//
// SLRH candidate-pool admission requires: (a) every parent of the subtask is
// already mapped, and (b) enough energy remains on the target machine for the
// subtask to execute at the SECONDARY version AND communicate all resulting
// data items in the worst case — i.e. assuming every child lands across the
// lowest-bandwidth link in the grid. Max-Max applies the same rule but
// assesses each version independently (so both versions of the same subtask
// can sit in the pool simultaneously).

#include <vector>

#include "sim/schedule.hpp"
#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

class ScenarioCache;

/// Slack added to the available-energy side of every admission comparison
/// (need <= available + eps): absorbs the accumulated rounding of the
/// energy-need sums. Exposed so batch admission (core/scoring.hpp) performs
/// the bit-identical comparison.
inline constexpr double kEnergyFitEps = 1e-9;

/// Worst-case energy the target machine would need to send all of the
/// subtask's output data items, assuming every child is mapped across the
/// grid's lowest-bandwidth link.
double worst_case_outgoing_energy(const workload::Scenario& scenario, TaskId task,
                                  MachineId machine, VersionKind version);

/// Energy drawn from `machine`'s battery to execute (task, version) there.
double exec_energy(const workload::Scenario& scenario, TaskId task, MachineId machine,
                   VersionKind version);

/// True iff the machine's AVAILABLE energy (capacity - spent - reserved)
/// covers executing (task, version) plus the worst-case outgoing
/// communication for that version.
bool version_fits_energy(const workload::Scenario& scenario,
                         const sim::Schedule& schedule, TaskId task,
                         MachineId machine, VersionKind version);

/// Cache-aware form: the energy need is read from the precomputed table
/// instead of re-derived from the DAG. Bit-identical verdicts (the table is
/// built by the exact uncached expression).
bool version_fits_energy(const ScenarioCache& cache, const sim::Schedule& schedule,
                         TaskId task, MachineId machine, VersionKind version);

/// True iff every parent of `task` is already assigned in `schedule`.
bool parents_assigned(const workload::Scenario& scenario, const sim::Schedule& schedule,
                      TaskId task);

/// Critical-path deadline budget shared by the static mappers (Max-Max and
/// the baselines; DESIGN.md §4): tail[t] is the cheapest possible execution
/// of t's longest descendant chain, each descendant at its secondary version
/// on its fastest machine. A placement of t that finishes after
/// tau - tail[t] leaves the rest of the DAG uncompletable.
std::vector<Cycles> deadline_tails(const workload::Scenario& scenario);

/// SLRH pool admission: parents assigned AND the secondary version fits.
/// Defined as classify_slrh_admission(...) == Admissible — the classifying
/// form is the single source of truth, so the boolean and telemetry paths
/// can never drift.
bool slrh_pool_admissible(const workload::Scenario& scenario,
                          const sim::Schedule& schedule, TaskId task,
                          MachineId machine);

/// Why a subtask was (or was not) admitted to an SLRH candidate pool — the
/// rejection reasons the decision trace records. The checks run in the same
/// order slrh_pool_admissible short-circuits them, so the first failing rule
/// is the reported reason.
enum class AdmissionOutcome : std::uint8_t {
  Admissible,
  AlreadyAssigned,
  ParentsUnassigned,
  EnergyInfeasible,  ///< secondary version + worst-case comms exceed budget
};

const char* to_string(AdmissionOutcome outcome);

AdmissionOutcome classify_slrh_admission(const workload::Scenario& scenario,
                                         const sim::Schedule& schedule, TaskId task,
                                         MachineId machine);

}  // namespace ahg::core
