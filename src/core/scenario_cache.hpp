#pragma once
// Precomputed pure-scenario tables for the heuristic inner loops.
//
// Pool admission and candidate scoring repeatedly evaluate quantities that
// are pure functions of the static scenario — execution durations, execution
// energies, and the conservative admission "energy need" (execution energy
// plus the worst-case outgoing-communication energy over all child edges,
// paper §IV). The clock-driven SLRH driver re-derives them O(timesteps ×
// machines × |T| × degree) times; a ScenarioCache computes each exactly once
// per (task, machine, version) and the hot paths read the tables instead.
//
// Bit-identity contract: every table entry is produced by the SAME
// expression, in the SAME operation order, as the uncached functions in
// feasibility.cpp / scoring.cpp evaluate on demand. A cached lookup therefore
// returns a bit-identical double, and heuristics driven through the cache
// make exactly the same decisions as the uncached paths (asserted by
// tests/test_determinism.cpp). The uncached functions remain as the diff
// baseline.
//
// Build: entries are independent per (task, machine, version) and a
// machine's column is one contiguous range, so the build fans machine
// columns out over the global work-stealing pool (configure_global_pool /
// --jobs) with no ordering concerns; the dominant cost, the admission
// energy's per-entry walk over the task's children, scales with the worker
// count. Every entry equals its uncached expression bit for bit whatever the
// worker count (asserted by test_determinism under a 4-worker pool).
//
// A cache is immutable after construction and safe to share read-only
// across threads — the tuner builds one per scenario and all parallel_for
// workers probing weight grid points reuse it.

#include <vector>

#include "support/units.hpp"
#include "support/version.hpp"
#include "workload/scenario.hpp"

namespace ahg::core {

class ScenarioCache {
 public:
  explicit ScenarioCache(const workload::Scenario& scenario);

  std::size_t num_tasks() const noexcept { return num_tasks_; }
  std::size_t num_machines() const noexcept { return num_machines_; }

  /// scenario.exec_cycles(task, machine, version), precomputed.
  Cycles exec_cycles(TaskId task, MachineId machine, VersionKind version) const {
    return exec_cycles_[index(task, machine, version)];
  }

  /// core::exec_energy(scenario, task, machine, version), precomputed.
  double exec_energy(TaskId task, MachineId machine, VersionKind version) const {
    return exec_energy_[index(task, machine, version)];
  }

  /// The admission "energy need": exec_energy + worst_case_outgoing_energy —
  /// the quantity version_fits_energy compares against the machine's
  /// available battery.
  double energy_need(TaskId task, MachineId machine, VersionKind version) const {
    return energy_need_[index(task, machine, version)];
  }

  /// compute_power(machine) * etc.seconds(task, machine): the exact
  /// (un-rounded) primary execution energy the upper bound's greedy
  /// minimum-energy pick evaluates per (task, machine).
  double primary_compute_energy(TaskId task, MachineId machine) const {
    return primary_compute_energy_[static_cast<std::size_t>(task) * num_machines_ +
                                   static_cast<std::size_t>(machine)];
  }

  /// Machine columns built: always num_machines(). Kept for callers that
  /// report it (the benchmark's set-up metrics).
  std::size_t columns_built() const noexcept { return num_machines_; }

  /// Table storage in bytes (all four tables), the memory-telemetry gauge
  /// exported as memory.scenario_cache_bytes.
  std::size_t memory_bound_bytes() const noexcept {
    return exec_cycles_.capacity() * sizeof(Cycles) +
           exec_energy_.capacity() * sizeof(double) +
           energy_need_.capacity() * sizeof(double) +
           primary_compute_energy_.capacity() * sizeof(double);
  }

 private:
  /// MACHINE-major: one machine's whole column is contiguous (stride 2
  /// entries per task). The SLRH hot path — the batched pool gather — reads
  /// a fixed machine's entries across many ready tasks, so this layout turns
  /// the gather into near-sequential loads at |M|=512, where the old
  /// task-major layout strode |M|*2 entries (a cache line per task). It is
  /// also what makes the parallel build trivially safe: a column is one
  /// contiguous disjoint range per machine.
  std::size_t index(TaskId task, MachineId machine, VersionKind version) const {
    return (static_cast<std::size_t>(machine) * num_tasks_ +
            static_cast<std::size_t>(task)) *
               2 +
           (version == VersionKind::Primary ? 0 : 1);
  }

  /// Fill one machine's exec_cycles/exec_energy/energy_need column.
  void fill_column(const workload::Scenario& scenario, MachineId machine);

  std::size_t num_tasks_ = 0;
  std::size_t num_machines_ = 0;
  std::vector<Cycles> exec_cycles_;             ///< |M| x |T| x 2
  std::vector<double> exec_energy_;             ///< |M| x |T| x 2
  std::vector<double> energy_need_;             ///< |M| x |T| x 2
  std::vector<double> primary_compute_energy_;  ///< |T| x |M|
};

}  // namespace ahg::core
