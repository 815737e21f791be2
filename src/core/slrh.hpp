#pragma once
// The Simplified Lagrangian Receding Horizon (SLRH) resource manager
// (paper §IV, Figure 1) and its three variants (paper §V).
//
// SLRH is a clock-driven dynamic heuristic: at each timestep of dT cycles it
// sweeps the machines in numerical order; for each machine that is available
// (its last scheduled computation has finished), it builds a pool U of
// candidate subtasks (parents mapped, secondary version energy-feasible on
// that machine under the worst-case communication rule), picks the version
// of each candidate that maximises the global objective, orders the pool by
// objective value, and maps the first candidate whose exact earliest start
// falls within the receding horizon H of the current clock. "Simplified"
// means the Lagrangian weights (alpha, beta, gamma) are constants for the
// whole run.
//
// Variant 1 maps at most one subtask per machine per timestep. Variant 2
// keeps assigning pairs from the SAME pool (no re-evaluation) until the pool
// is exhausted or nothing more starts within the horizon. Variant 3 rebuilds
// and re-scores the pool after every assignment (newly enabled children join
// immediately) and keeps filling the same machine.

#include <cstdint>

#include "core/objective.hpp"
#include "core/result.hpp"
#include "support/event_log.hpp"
#include "workload/scenario.hpp"

namespace ahg::obs {
class FlightRecorder;
class Heartbeat;
class TaskLedger;
}  // namespace ahg::obs

namespace ahg::core {

class ScenarioCache;
class ReadyFrontier;
struct CandidateBatch;

enum class SlrhVariant : std::uint8_t { V1 = 1, V2 = 2, V3 = 3 };

std::string to_string(SlrhVariant variant);

struct SlrhParams {
  SlrhVariant variant = SlrhVariant::V1;
  Weights weights = Weights::make(0.5, 0.1);
  Cycles dt = 10;       ///< timestep in clock cycles (paper: 10)
  Cycles horizon = 100; ///< receding horizon H in clock cycles (paper: 100)
  AetSign aet_sign = AetSign::Reward;

  /// Optional observability sink (not owned). Null — the default — takes the
  /// exact pre-telemetry code path: no events, no clock reads, bit-identical
  /// schedules (see DESIGN.md "Observability" for the contract). With a sink
  /// attached the run emits run_begin/run_end, per-pool, per-map-decision
  /// (with the weighted objective-term breakdown and skipped-candidate
  /// rejection reasons), and stall events, and feeds phase histograms into
  /// sink->metrics() when present.
  obs::Sink* sink = nullptr;

  /// Optional flight recorder (not owned). Null — the default — takes the
  /// exact pre-recorder code path (one branch per timestep, no clock reads,
  /// bit-identical schedules; same contract as `sink`). With a recorder
  /// attached the driver samples one obs::Frame at the END of every ACTIVE
  /// timestep — idle ticks are decimated per FlightRecorder::Options::
  /// idle_stride (set it to 1 for literally every tick)
  /// (objective-term breakdown, progress, pool/frontier sizes, per-machine
  /// battery fraction and busy-until) and adds a wall-clock span per pool
  /// build; run_slrh wraps the whole run in a span. Recording only observes
  /// — no decision reads recorder state.
  obs::FlightRecorder* recorder = nullptr;

  /// Optional task-major lifecycle ledger (not owned; same null contract as
  /// `recorder`: one branch per instrumentation point, no locks, no
  /// allocations, bit-identical schedules — asserted by
  /// tests/test_determinism.cpp). With a ledger attached the driver records
  /// each subtask's released / frontier-ready / pooled / admitted /
  /// transfer / executing / completed transitions plus the causal input
  /// edges; core/critical_path.hpp consumes the result. Recording only
  /// observes — no decision reads ledger state.
  obs::TaskLedger* ledger = nullptr;

  /// Optional live-run heartbeat tap (not owned; same null contract: one
  /// branch per timestep, relaxed atomic stores only, bit-identical
  /// schedules). With a heartbeat attached the driver publishes the current
  /// clock and assigned-task count at the end of every tick; the heartbeat's
  /// background thread turns them into heartbeat.json progress/ETA fields
  /// and feeds the stall watchdog. See support/runtime_profiler.hpp.
  obs::Heartbeat* heartbeat = nullptr;

  /// Optional precomputed pure-scenario tables (not owned). Null — the
  /// default — makes the driver build its own once per run; supply one to
  /// amortise the build across many runs on the same scenario (the tuner's
  /// solver does, sharing it read-only across its worker threads).
  const ScenarioCache* cache = nullptr;

  /// Optional per-task degrade mask (not owned; indexed by TaskId). A task
  /// whose entry is non-zero is only ever offered at its secondary version —
  /// the churn driver's "degrade" recovery policy marks re-mapped orphans so
  /// they finish cheaply instead of competing for primary slots. Null — the
  /// default — changes nothing (bit-identical schedules).
  const std::vector<std::uint8_t>* secondary_only = nullptr;

  void validate() const {
    weights.validate();
    AHG_EXPECTS_MSG(dt >= 1, "dT must be at least one cycle");
    AHG_EXPECTS_MSG(horizon >= 0, "horizon must be non-negative");
  }
};

/// Run SLRH to completion (all subtasks mapped) or until the clock passes
/// tau with work remaining. Deterministic. The returned result owns the
/// final schedule.
MappingResult run_slrh(const workload::Scenario& scenario, const SlrhParams& params);

/// Low-level driver: advance an EXISTING schedule with the SLRH loop from
/// start_clock until completion, the scenario's tau (inclusive), or
/// end_clock (EXCLUSIVE) — whichever comes first. Used by run_slrh (fresh
/// schedule, full window) and by the churn and machine-loss drivers
/// (replayed schedule, resuming at the recovery time). Adds the window's
/// ticks, pools built and scopes skipped via cross-tick pool reuse
/// (core/sweep.hpp) to stats.iterations / pools_built / pools_reused, and
/// its totals to the slrh.* counters of params.sink's metrics.
void drive_slrh(const workload::Scenario& scenario, const SlrhParams& params,
                sim::Schedule& schedule, Cycles start_clock, Cycles end_clock,
                MappingResult& stats);

// --- pool construction (exposed for micro-benchmarks and invariant tests) --

/// One entry of the ordered candidate pool U: the subtask with its
/// objective-maximising version and that version's score.
struct SlrhPoolCandidate {
  TaskId task = kInvalidTask;
  VersionKind version = VersionKind::Primary;
  double score = 0.0;
};

/// Pool-admission rejection tally for one pool build (telemetry only).
struct SlrhPoolRejects {
  std::size_t unreleased = 0;
  std::size_t assigned = 0;
  std::size_t parents = 0;
  std::size_t energy = 0;

  bool any() const noexcept { return unreleased + assigned + parents + energy > 0; }
};

/// Output-sensitive pool construction — the driver's only pool builder.
/// Iterates only the frontier's ready tasks (released, unassigned, parents
/// assigned — typically << |T|) and runs admission, gathering, and scoring
/// through the structure-of-arrays CandidateBatch + score_batch kernel
/// (core/scoring.hpp): one parent walk per task, branch-free scores over
/// contiguous columns. The frontier must have been advanced to `clock` and
/// notified of every commit. Produces the pool of the paper's full scan, in
/// the same order, with bit-identical scores (diffed against the scan
/// oracle in tests/oracles). `rejects` non-null receives the rejection
/// tallies, derived from the frontier's running counters plus the
/// per-machine energy rejections. `scoring_histogram` non-null accumulates
/// the gather + score share of the build. `scratch` non-null reuses that
/// batch's storage across builds (allocation-free steady state); null uses
/// a local.
std::vector<SlrhPoolCandidate> build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, SlrhPoolRejects* rejects = nullptr,
    obs::Histogram* scoring_histogram = nullptr,
    CandidateBatch* scratch = nullptr);

}  // namespace ahg::core
