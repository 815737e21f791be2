#include "core/scenario_cache.hpp"

#include <algorithm>
#include <limits>

#include "core/feasibility.hpp"
#include "support/checked.hpp"
#include "support/runtime_profiler.hpp"
#include "support/thread_pool.hpp"

namespace ahg::core {

ScenarioCache::ScenarioCache(const workload::Scenario& scenario)
    : num_tasks_(scenario.num_tasks()), num_machines_(scenario.num_machines()) {
  const std::size_t cells =
      checked_mul(num_tasks_, num_machines_, 2, "ScenarioCache tables");
  exec_cycles_.resize(cells);
  exec_energy_.resize(cells);
  energy_need_.resize(cells);
  min_exec_cycles_.assign(checked_mul(num_tasks_, 2, "min_exec_cycles table"),
                          std::numeric_limits<Cycles>::max());
  primary_compute_energy_.resize(
      checked_mul(num_tasks_, num_machines_, "primary_compute_energy table"));

  const auto num_machines = static_cast<MachineId>(num_machines_);
  // The region marker labels both fan-outs in a worker trace when a
  // profiler is attached.
  obs::RuntimeRegion region(global_pool().profiler(), "cache_build");
  global_pool().parallel_for(0, num_machines_, [&](std::size_t machine) {
    fill_column(scenario, static_cast<MachineId>(machine));
  });

  // The per-task tables cost ETC lookups only (no per-entry child walk) and
  // fan out over tasks. The minimum accumulates over machines in ascending
  // order — and min over integers is order-independent anyway.
  global_pool().parallel_for(0, num_tasks_, [&](std::size_t t) {
    const auto task = static_cast<TaskId>(t);
    for (MachineId machine = 0; machine < num_machines; ++machine) {
      for (const VersionKind version :
           {VersionKind::Primary, VersionKind::Secondary}) {
        const std::size_t m = static_cast<std::size_t>(task) * 2 +
                              (version == VersionKind::Primary ? 0 : 1);
        // The exact expression (and operation order) of the uncached path so
        // lookups are bit-identical to recomputation.
        min_exec_cycles_[m] = std::min(
            min_exec_cycles_[m], scenario.exec_cycles(task, machine, version));
      }
      // This table keeps the task-major layout its consumer (the upper
      // bound's per-task greedy sweep over machines) reads sequentially.
      primary_compute_energy_[static_cast<std::size_t>(task) * num_machines_ +
                              static_cast<std::size_t>(machine)] =
          scenario.grid.machine(machine).compute_power *
          scenario.etc.seconds(task, machine);
    }
  });
}

void ScenarioCache::fill_column(const workload::Scenario& scenario,
                                MachineId machine) {
  const auto num_tasks = static_cast<TaskId>(num_tasks_);
  for (TaskId task = 0; task < num_tasks; ++task) {
    for (const VersionKind version :
         {VersionKind::Primary, VersionKind::Secondary}) {
      const std::size_t i = index(task, machine, version);
      // Each entry uses the exact expression (and operation order) of the
      // uncached path so lookups are bit-identical to recomputation.
      exec_cycles_[i] = scenario.exec_cycles(task, machine, version);
      exec_energy_[i] = core::exec_energy(scenario, task, machine, version);
      energy_need_[i] =
          exec_energy_[i] +
          worst_case_outgoing_energy(scenario, task, machine, version);
    }
  }
}

}  // namespace ahg::core
