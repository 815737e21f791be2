#pragma once
// Reference SLRH driver: the paper's §IV loop (Figure 1) written the plain
// way, as the oracle the engine (core/slrh.cpp) is diffed against.
//
// At every timestep it visits the machines in index order and, for each one
// that is present and idle, scans all |T| subtasks to build the pool, scores
// each candidate with the uncached score_candidate, and calls plan_placement
// on the candidates in score order until one starts within the horizon. No
// ScenarioCache, no ready frontier, no beyond-horizon memo, no cross-tick
// pool reuse, no observers — none of the engine's accelerators, so a bug in
// any of them shows up as a schedule that differs from this one.

#include <vector>

#include "core/objective.hpp"
#include "core/result.hpp"
#include "core/slrh.hpp"
#include "workload/scenario.hpp"

namespace ahg::oracle {

/// The original pool construction: scan all |T| subtasks, re-deriving the
/// admission energies on demand, and order the pool by score descending
/// (ties: smaller task id). `rejects` non-null tallies per-task rejection
/// reasons through classify_slrh_admission.
std::vector<core::SlrhPoolCandidate> build_slrh_pool_scan(
    const workload::Scenario& scenario, const sim::Schedule& schedule,
    const core::SlrhParams& params, const core::ObjectiveTotals& totals,
    MachineId machine, Cycles clock, core::SlrhPoolRejects* rejects = nullptr);

/// Run the reference loop over a fresh schedule from clock 0 until every
/// subtask is mapped or the clock passes tau. Reads only the variant,
/// weights, dT, H, AET sign and the degrade mask from `params`. The result
/// carries the final schedule, the objective totals, `wall_seconds`,
/// `iterations` and `pools_built` (one per pool the loop built).
core::MappingResult run_slrh_reference(const workload::Scenario& scenario,
                                       const core::SlrhParams& params);

}  // namespace ahg::oracle
