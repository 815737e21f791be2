#pragma once
// Outcome of one heuristic run on one scenario, and the run envelope every
// driver finishes through: the result finisher, the RunBegin/RunEnd events
// and the schedule-derived state of a flight-recorder frame.

#include <memory>
#include <string>

#include "core/objective.hpp"
#include "sim/schedule.hpp"
#include "support/stopwatch.hpp"
#include "support/units.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class Sink;
struct Frame;
}  // namespace ahg::obs

namespace ahg::core {

struct MappingResult {
  /// Every subtask received an assignment.
  bool complete = false;
  /// AET <= tau. Energy feasibility is guaranteed by construction (the
  /// ledger rejects overdraws), so complete && within_tau == fully feasible.
  bool within_tau = false;

  std::size_t t100 = 0;     ///< subtasks mapped at primary version
  std::size_t assigned = 0; ///< subtasks mapped at all
  Cycles aet = 0;           ///< application execution time, cycles
  double tec = 0.0;         ///< total energy consumed

  /// Heuristic execution (wall-clock) time in seconds — the quantity
  /// Figures 6 and 7 report.
  double wall_seconds = 0.0;

  /// Diagnostics: clock sweeps executed (SLRH) or selection rounds
  /// (Max-Max), and candidate pools constructed.
  std::size_t iterations = 0;
  std::size_t pools_built = 0;
  /// (machine, timestep) scopes skipped via a cached cross-tick verdict
  /// instead of rebuilding the pool (SLRH only; see core/sweep.hpp).
  /// pools_built + pools_reused equals the reference driver's pool count
  /// (tests/oracles).
  std::size_t pools_reused = 0;
  /// Always zero: the speculative parallel sweep that counted discarded
  /// pools here is gone. The field stays only because the benchmark program
  /// (perfbench/) still reads it; drop it with the next benchmark change.
  std::size_t spec_aborted = 0;

  /// The full schedule, for validation / trace export. Shared so results can
  /// be copied cheaply by the experiment harness.
  std::shared_ptr<const sim::Schedule> schedule;

  bool feasible() const noexcept { return complete && within_tau; }
};

/// Finish a run: stamp the wall time read from `timer`, copy the outcome
/// (completeness, T100, AET, TEC, within_tau against `scenario.tau`) from
/// the final schedule and hand the schedule over to the result. The
/// driver's own diagnostics in `result` (iterations, pools) pass through.
MappingResult finalize_result(const workload::Scenario& scenario,
                              std::shared_ptr<sim::Schedule> schedule,
                              const Stopwatch& timer, MappingResult result);

/// "|T|=…, machines=…, tau=…": the RunBegin note of a plain run.
std::string scenario_shape_note(const workload::Scenario& scenario);

/// Emit the RunBegin event of a run of `heuristic` under `weights`. No-op
/// unless `sink` is non-null and wants the event.
void emit_run_begin(obs::Sink* sink, const std::string& heuristic,
                    const Weights& weights, const std::string& note);

/// Emit the RunEnd event carrying a finished `result`. No-op unless `sink`
/// is non-null and wants the event.
void emit_run_end(obs::Sink* sink, const std::string& heuristic,
                  const Weights& weights, const MappingResult& result,
                  const std::string& note = {});

/// Fill the schedule-derived part of a flight-recorder frame: the weighted
/// objective terms, mapping progress (assigned, T100, TEC, AET) and the
/// per-machine battery fraction and busy-until clock. The timing and
/// per-tick activity fields stay the driver's to set.
void fill_frame_state(obs::Frame& frame, const sim::Schedule& schedule,
                      const Weights& weights, const ObjectiveTotals& totals,
                      AetSign aet_sign);

}  // namespace ahg::core
