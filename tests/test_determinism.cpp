// Cross-variant determinism: the engine (precomputed tables + ready frontier
// + batched scoring + beyond-horizon memo + pool reuse) must produce
// BIT-IDENTICAL schedules to the plain reference driver in tests/oracles —
// same T100, same AET, same TEC down to the last double bit, same
// per-subtask placements. The tables and the batch kernel evaluate the exact
// uncached expressions, so any divergence is a bug, not rounding.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/churn.hpp"
#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/heuristics.hpp"
#include "core/runner.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/tuner.hpp"
#include "core/upper_bound.hpp"
#include "support/flight_recorder.hpp"
#include "support/runtime_profiler.hpp"
#include "support/task_ledger.hpp"
#include "support/thread_pool.hpp"
#include "tests/oracles/slrh_reference.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

// Pin the process-wide pool to four workers BEFORE anything builds it (each
// test file is its own binary, so this static initializer runs first). The
// ScenarioCache build and the tuner fan out over it; without the pin,
// single-core CI hosts would silently test the inline fallback and call it
// coverage. Every test in this binary therefore runs with a real multi-
// worker pool — which is exactly what the TSan job wants to race-check.
[[maybe_unused]] const bool kForceParallelPool = [] {
  configure_global_pool(4);
  return true;
}();

std::vector<workload::Scenario> paper_shape_fixtures() {
  std::vector<workload::Scenario> fixtures;
  fixtures.push_back(test::small_suite_scenario(sim::GridCase::A, 48));
  fixtures.push_back(test::small_suite_scenario(sim::GridCase::B, 48));
  fixtures.push_back(test::small_suite_scenario(sim::GridCase::C, 48));
  // One dynamic-arrival shape so the release cursor is exercised too.
  auto released = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  released.releases = workload::generate_release_times(
      workload::ReleaseParams{0.3}, released.dag, released.tau, 11);
  fixtures.push_back(std::move(released));
  return fixtures;
}

void expect_identical(const core::MappingResult& reference,
                      const core::MappingResult& fast,
                      const workload::Scenario& scenario, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(reference.complete, fast.complete);
  EXPECT_EQ(reference.assigned, fast.assigned);
  EXPECT_EQ(reference.t100, fast.t100);
  EXPECT_EQ(reference.aet, fast.aet);
  EXPECT_EQ(reference.tec, fast.tec);  // exact: bit-identical doubles
  ASSERT_NE(reference.schedule, nullptr);
  ASSERT_NE(fast.schedule, nullptr);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    ASSERT_EQ(reference.schedule->is_assigned(t), fast.schedule->is_assigned(t))
        << "task " << t;
    if (!reference.schedule->is_assigned(t)) continue;
    const auto& a = reference.schedule->assignment(t);
    const auto& b = fast.schedule->assignment(t);
    EXPECT_EQ(a.machine, b.machine) << "task " << t;
    EXPECT_EQ(a.version, b.version) << "task " << t;
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_EQ(a.energy, b.energy) << "task " << t;  // exact
  }
}

TEST(Determinism, SlrhCachedMatchesReference) {
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache shared(scenario);
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto reference = oracle::run_slrh_reference(scenario, params);

      const auto local = core::run_slrh(scenario, params);  // run-local tables
      params.cache = &shared;
      const auto cached = core::run_slrh(scenario, params);  // shared tables

      expect_identical(reference, local, scenario, to_string(variant).c_str());
      expect_identical(reference, cached, scenario, to_string(variant).c_str());
      // Every reused scope is one the reference built a pool for.
      EXPECT_EQ(local.pools_built + local.pools_reused, reference.pools_built);
      EXPECT_EQ(local.iterations, reference.iterations);
    }
  }
}

TEST(Determinism, ChurnOffDriverMatchesPlainSlrh) {
  // churn=off contract: routing a run through run_slrh_with_churn — with no
  // presence windows, and with trivial all-present windows that exercise the
  // availability check on every sweep — is bit-identical to run_slrh.
  for (const auto& scenario : paper_shape_fixtures()) {
    auto trivial = scenario;
    trivial.machine_windows.assign(scenario.num_machines(),
                                   workload::Scenario::MachineWindow{});
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);

      const auto plain = core::run_slrh(scenario, params);
      const auto off = core::run_slrh_with_churn(scenario, params);
      const auto all_present = core::run_slrh_with_churn(trivial, params);

      EXPECT_EQ(off.departures_processed, 0u);
      EXPECT_EQ(all_present.departures_processed, 0u);
      expect_identical(plain, off.result, scenario, to_string(variant).c_str());
      expect_identical(plain, all_present.result, scenario,
                       to_string(variant).c_str());
    }
  }
}

TEST(Determinism, SlrhRebuildEveryScopeMatchesReferencePoolForPool) {
  // With pool reuse off the engine builds a pool exactly where the
  // reference does — the frontier + batched-scoring pool of every scope
  // must then lead to the scan-built pool's decision, and the pool counts
  // must agree one for one.
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      params.pool_reuse = false;
      const auto reference = oracle::run_slrh_reference(scenario, params);
      const auto rebuilt = core::run_slrh(scenario, params);

      expect_identical(reference, rebuilt, scenario, to_string(variant).c_str());
      EXPECT_EQ(rebuilt.pools_built, reference.pools_built);
      EXPECT_EQ(rebuilt.pools_reused, 0u);
    }
  }
}

TEST(Determinism, ChurnRecoveredPoolsMatchScan) {
  // Churn recovery erases committed work from the timelines and returns
  // orphans to the pool, so the batched gather sees erase-touched state no
  // fresh run produces. Stop a churned run early (tau cut just past the
  // departure) so work is left, then build every present machine's pool
  // both ways from that schedule: the frontier + batched build must equal
  // the oracle's full scan — membership, order, versions, scores and
  // rejection tallies — with and without a degrade mask.
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  scenario.tau = scenario.tau / 8 + scenario.tau / 64;
  const core::ScenarioCache cache(scenario);
  const core::ObjectiveTotals totals = core::objective_totals(scenario);
  std::vector<std::uint8_t> degrade(scenario.num_tasks(), 0);
  for (std::size_t t = 0; t < degrade.size(); t += 3) degrade[t] = 1;

  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto churned = core::run_slrh_with_churn(scenario, params);
    ASSERT_GT(churned.departures_processed, 0u);
    ASSERT_GT(churned.orphaned, 0u);
    ASSERT_FALSE(churned.result.complete) << "no work left to pool";
    const sim::Schedule& schedule = *churned.result.schedule;

    core::ReadyFrontier frontier(scenario, schedule);
    core::CandidateBatch scratch;
    std::size_t pooled = 0;
    for (const Cycles clock : {scenario.tau / 2, scenario.tau}) {
      frontier.advance_to(clock);
      const std::vector<std::uint8_t>* const masks[] = {nullptr, &degrade};
      for (const auto* mask : masks) {
        params.secondary_only = mask;
        for (MachineId m = 0; m < static_cast<MachineId>(scenario.num_machines());
             ++m) {
          if (!scenario.machine_available(m, clock)) continue;
          SCOPED_TRACE(to_string(variant) + " clock " + std::to_string(clock) +
                       " machine " + std::to_string(m) +
                       (mask != nullptr ? " degraded" : ""));
          core::SlrhPoolRejects scan_rejects, batched_rejects;
          const auto scan = oracle::build_slrh_pool_scan(
              scenario, schedule, params, totals, m, clock, &scan_rejects);
          const auto batched = core::build_slrh_pool_batched(
              scenario, cache, frontier, schedule, params, totals, m, clock,
              &batched_rejects, nullptr, &scratch);
          ASSERT_EQ(scan.size(), batched.size());
          for (std::size_t i = 0; i < scan.size(); ++i) {
            EXPECT_EQ(scan[i].task, batched[i].task) << "slot " << i;
            EXPECT_EQ(scan[i].version, batched[i].version) << "slot " << i;
            EXPECT_EQ(scan[i].score, batched[i].score) << "slot " << i;  // exact
          }
          EXPECT_EQ(scan_rejects.unreleased, batched_rejects.unreleased);
          EXPECT_EQ(scan_rejects.assigned, batched_rejects.assigned);
          EXPECT_EQ(scan_rejects.parents, batched_rejects.parents);
          EXPECT_EQ(scan_rejects.energy, batched_rejects.energy);
          pooled += scan.size();
        }
      }
    }
    EXPECT_GT(pooled, 0u) << to_string(variant);
  }
}

// Hole-index side of the placement contract: every timeline a real run
// commits (compute/tx/rx, SLRH and Max-Max, including churn-recovered state)
// must answer earliest_fit probes identically through the indexed path and
// the retained linear walk.
void expect_hole_index_matches_walk(const core::MappingResult& result,
                                    const workload::Scenario& scenario,
                                    const char* label) {
  SCOPED_TRACE(label);
  ASSERT_NE(result.schedule, nullptr);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  for (MachineId m = 0; m < num_machines; ++m) {
    for (const sim::Timeline* tl :
         {&result.schedule->compute_timeline(m), &result.schedule->tx_timeline(m),
          &result.schedule->rx_timeline(m)}) {
      for (const Cycles p : {Cycles{0}, scenario.tau / 3, scenario.tau}) {
        for (const Cycles d : {Cycles{1}, Cycles{100}, scenario.tau / 4}) {
          EXPECT_EQ(tl->earliest_fit(p, d), tl->earliest_fit_walk(p, d))
              << "machine " << m << " p=" << p << " d=" << d;
        }
      }
    }
  }
}

TEST(Determinism, HoleIndexMatchesWalkOnRunTimelines) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::SlrhParams slrh;
    slrh.weights = core::Weights::make(0.6, 0.3);
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      slrh.variant = variant;
      expect_hole_index_matches_walk(core::run_slrh(scenario, slrh), scenario,
                                     to_string(variant).c_str());
    }
    core::MaxMaxParams maxmax;
    maxmax.weights = core::Weights::make(0.6, 0.3);
    expect_hole_index_matches_walk(core::run_maxmax(scenario, maxmax), scenario,
                                   "Max-Max");
  }
  // Churn-recovered schedules hit erase(): the index must stay coherent.
  auto churned = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  churned.machine_windows.assign(churned.num_machines(),
                                 workload::Scenario::MachineWindow{});
  churned.machine_windows[1].depart = churned.tau / 8;
  core::SlrhParams params;
  params.variant = core::SlrhVariant::V1;
  params.weights = core::Weights::make(0.6, 0.3);
  const auto churn = core::run_slrh_with_churn(churned, params);
  EXPECT_GT(churn.departures_processed, 0u);
  expect_hole_index_matches_walk(churn.result, churned, "churn recovery");
}

TEST(Determinism, MaxMaxCachedMatchesLegacyScan) {
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache shared(scenario);
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);

    params.legacy_scan = true;
    const auto legacy = core::run_maxmax(scenario, params);

    params.legacy_scan = false;
    const auto local = core::run_maxmax(scenario, params);
    params.cache = &shared;
    const auto cached = core::run_maxmax(scenario, params);

    expect_identical(legacy, local, scenario, "Max-Max local tables");
    expect_identical(legacy, cached, scenario, "Max-Max shared tables");
  }
}

// The flight recorder's side of the null-handle contract: attaching one —
// at the default decimated sampling AND at dense every-tick sampling — must
// leave every schedule bit-identical to the recorder-off run. Recording only
// observes; no decision may read recorder state or depend on a clock it
// introduces.
TEST(Determinism, SlrhRecorderOnMatchesRecorderOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::FlightRecorder sampled;  // default idle/span strides
      params.recorder = &sampled;
      const auto with_sampled = core::run_slrh(scenario, params);

      obs::FlightRecorder dense(obs::FlightRecorder::dense_options());
      params.recorder = &dense;
      const auto with_dense = core::run_slrh(scenario, params);

      expect_identical(off, with_sampled, scenario, to_string(variant).c_str());
      expect_identical(off, with_dense, scenario, to_string(variant).c_str());
      EXPECT_GT(dense.frames_recorded(), 0u);
      EXPECT_GE(dense.frames_recorded(), sampled.frames_recorded());
    }
  }
}

TEST(Determinism, MaxMaxRecorderOnMatchesRecorderOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    params.recorder = &recorder;
    const auto on = core::run_maxmax(scenario, params);

    expect_identical(off, on, scenario, "Max-Max recorder on");
    EXPECT_EQ(recorder.frames_recorded(),
              static_cast<std::uint64_t>(on.assigned));
  }
}

TEST(Determinism, ChurnRecorderOnMatchesRecorderOff) {
  // Same contract through the churn driver: recovery spans and churn-context
  // stamping must not perturb the rebuilt schedules.
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  // One mid-run departure so the recovery path actually runs. Early enough
  // (tau/8) that every variant — V3 finishes mapping fastest — still has
  // work left afterwards, so post-recovery frames exist to check.
  scenario.machine_windows[1].depart = scenario.tau / 8;
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    params.recorder = &recorder;
    const auto on = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario,
                     to_string(variant).c_str());

    // The recording saw the churn: later frames carry the cumulative tallies
    // and a churn_recovery span exists.
    const auto frames = recorder.frames();
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.back().departures,
              static_cast<std::uint64_t>(off.departures_processed));
    bool saw_recovery = false;
    for (const auto& span : recorder.spans()) {
      if (span.name == "churn_recovery") saw_recovery = true;
    }
    EXPECT_TRUE(saw_recovery);
  }
}

// The task ledger's side of the null-handle contract, mirroring the recorder
// trio: attaching one must leave every schedule bit-identical to the
// ledger-off run. The ledger only observes; no decision may read its state.
TEST(Determinism, SlrhLedgerOnMatchesLedgerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::TaskLedger ledger(scenario.num_tasks());
      params.ledger = &ledger;
      const auto on = core::run_slrh(scenario, params);

      expect_identical(off, on, scenario, to_string(variant).c_str());
      EXPECT_GT(ledger.transitions_recorded(), 0u);
      // Every mapped task carries a full release->completion record.
      const auto records = ledger.records();
      for (TaskId t = 0; t < static_cast<TaskId>(scenario.num_tasks()); ++t) {
        if (!on.schedule->is_assigned(t)) continue;
        const auto& r = records[static_cast<std::size_t>(t)];
        EXPECT_EQ(r.state, obs::TaskState::Completed) << "task " << t;
        EXPECT_EQ(r.exec_start, on.schedule->assignment(t).start) << "task " << t;
        EXPECT_EQ(r.exec_finish, on.schedule->assignment(t).finish) << "task " << t;
      }
    }
  }
}

TEST(Determinism, MaxMaxLedgerOnMatchesLedgerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::TaskLedger ledger(scenario.num_tasks());
    params.ledger = &ledger;
    const auto on = core::run_maxmax(scenario, params);

    expect_identical(off, on, scenario, "Max-Max ledger on");
    EXPECT_GT(ledger.transitions_recorded(), 0u);
  }
}

TEST(Determinism, ChurnLedgerOnMatchesLedgerOff) {
  // Same contract through the churn driver: orphan/invalidation recording and
  // the re-armed pool flags must not perturb the rebuilt schedules.
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  for (const auto variant :
       {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::TaskLedger ledger(scenario.num_tasks());
    params.ledger = &ledger;
    const auto on = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario, to_string(variant).c_str());

    // The ledger saw the churn: orphan/invalidation tallies match the
    // driver's, and remapped work carries attempts > 1.
    std::uint64_t orphans = 0, invalidated = 0;
    bool saw_remap = false;
    for (const auto& r : ledger.records()) {
      orphans += r.orphan_count;
      invalidated += r.invalidated_count;
      if (r.attempts > 1) saw_remap = true;
    }
    EXPECT_EQ(orphans, static_cast<std::uint64_t>(off.orphaned));
    EXPECT_EQ(invalidated, static_cast<std::uint64_t>(off.invalidated));
    EXPECT_TRUE(saw_remap);
  }
}

// The runtime profiler's side of the null-handle contract. Unlike the
// recorder/ledger — which thread through params — the profiler attaches to
// the process-wide pool, so the hooks sit inside the workers themselves.
// Attaching one must still leave every schedule bit-identical: the profiler
// only reads clocks and counters, never influences task order or placement.
TEST(Determinism, SlrhProfilerOnMatchesProfilerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto off = core::run_slrh(scenario, params);

      obs::RuntimeProfiler profiler(global_pool().size());
      global_pool().set_profiler(&profiler);
      const auto on = core::run_slrh(scenario, params);
      global_pool().set_profiler(nullptr);

      expect_identical(off, on, scenario, to_string(variant).c_str());
      // The run-local ScenarioCache build fans out on the pinned 4-worker
      // pool, so the profiler must have seen pool tasks and that region.
      EXPECT_GT(profiler.totals().tasks, 0u);
      bool saw_cache_build = false;
      for (const auto& region : profiler.snapshot_regions()) {
        if (region.name == "cache_build") saw_cache_build = true;
      }
      EXPECT_TRUE(saw_cache_build);
    }
  }
}

TEST(Determinism, MaxMaxProfilerOnMatchesProfilerOff) {
  for (const auto& scenario : paper_shape_fixtures()) {
    core::MaxMaxParams params;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_maxmax(scenario, params);

    obs::RuntimeProfiler profiler(global_pool().size());
    global_pool().set_profiler(&profiler);
    const auto on = core::run_maxmax(scenario, params);
    global_pool().set_profiler(nullptr);

    // Max-Max is a serial heuristic — no pool tasks is fine; the contract is
    // only that an attached profiler perturbs nothing.
    expect_identical(off, on, scenario, "Max-Max profiler on");
  }
}

TEST(Determinism, ChurnProfilerOnMatchesProfilerOff) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto off = core::run_slrh_with_churn(scenario, params);

    obs::RuntimeProfiler profiler(global_pool().size());
    global_pool().set_profiler(&profiler);
    const auto on = core::run_slrh_with_churn(scenario, params);
    global_pool().set_profiler(nullptr);

    EXPECT_GT(off.departures_processed, 0u);
    EXPECT_EQ(on.departures_processed, off.departures_processed);
    EXPECT_EQ(on.orphaned, off.orphaned);
    EXPECT_EQ(on.invalidated, off.invalidated);
    EXPECT_EQ(on.energy_forfeited, off.energy_forfeited);  // exact
    expect_identical(off.result, on.result, scenario, to_string(variant).c_str());
    EXPECT_GT(profiler.totals().tasks, 0u);
  }
}

TEST(Determinism, ParallelMatrixProfilerOnMatchesProfilerOff) {
  // The profiler hooks also wrap the matrix-cell fan-out and the parallel
  // cache builds underneath evaluate_matrix; the whole nested stack must
  // stay bit-identical with a profiler attached.
  workload::SuiteParams suite_params;
  suite_params.num_tasks = 48;
  suite_params.num_etc = 2;
  suite_params.num_dag = 2;
  suite_params.master_seed = 777;
  const workload::ScenarioSuite suite(suite_params);
  const auto cases = {sim::GridCase::A, sim::GridCase::B};
  const std::vector<core::HeuristicKind> heuristics = {
      core::HeuristicKind::Slrh1, core::HeuristicKind::MaxMax};

  core::EvaluationParams params;
  params.tuner.coarse_step = 0.25;
  params.tuner.fine_step = 0.0;
  params.tuner.parallel = true;
  params.parallel_cells = true;

  const auto off = core::evaluate_matrix(suite, cases, heuristics, params);

  obs::RuntimeProfiler profiler(global_pool().size());
  global_pool().set_profiler(&profiler);
  const auto on = core::evaluate_matrix(suite, cases, heuristics, params);
  global_pool().set_profiler(nullptr);

  EXPECT_GT(profiler.totals().tasks, 0u);
  bool saw_cells = false;
  for (const auto& region : profiler.snapshot_regions()) {
    if (region.name == "matrix_cells") saw_cells = true;
  }
  EXPECT_TRUE(saw_cells);

  ASSERT_EQ(off.cells.size(), on.cells.size());
  for (std::size_t c = 0; c < off.cells.size(); ++c) {
    const auto& a = off.cells[c];
    const auto& b = on.cells[c];
    SCOPED_TRACE("cell " + sim::to_string(a.grid_case) + "/" +
                 core::to_string(a.heuristic));
    EXPECT_EQ(a.feasible_count, b.feasible_count);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
      const auto& x = a.scenarios[s];
      const auto& y = b.scenarios[s];
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(x.upper_bound, y.upper_bound);
      EXPECT_EQ(x.tune.found, y.tune.found);
      EXPECT_EQ(x.tune.alpha, y.tune.alpha);  // exact
      EXPECT_EQ(x.tune.beta, y.tune.beta);    // exact
      expect_identical(x.tune.best, y.tune.best,
                       suite.make(a.grid_case, x.etc_index, x.dag_index),
                       "tuned best");
    }
    EXPECT_EQ(a.t100.mean(), b.t100.mean());
    EXPECT_EQ(a.vs_bound.mean(), b.vs_bound.mean());
    EXPECT_EQ(a.alpha.mean(), b.alpha.mean());
    EXPECT_EQ(a.beta.mean(), b.beta.mean());
  }
}

TEST(Determinism, UpperBoundCachedMatchesUncached) {
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache cache(scenario);
    const auto plain = core::compute_upper_bound(scenario);
    const auto cached = core::compute_upper_bound(scenario, &cache);
    EXPECT_EQ(plain.bound, cached.bound);
    EXPECT_EQ(plain.tecc_seconds, cached.tecc_seconds);
    EXPECT_EQ(plain.cycles_used_seconds, cached.cycles_used_seconds);
    EXPECT_EQ(plain.energy_used, cached.energy_used);  // exact
    EXPECT_EQ(plain.cycle_limited, cached.cycle_limited);
    EXPECT_EQ(plain.energy_limited, cached.energy_limited);
  }
}

// The campaign engine's core promise: fanning the evaluation matrix out on
// the work-stealing pool (with the tuner sweep nested inside each cell)
// yields EXACTLY the serial matrix — cell for cell, scenario for scenario,
// down to the last double bit of the tuned outcomes and the Welford
// accumulators. Only measured wall time (and the value metric derived from
// it) may differ.
TEST(Determinism, ParallelMatrixMatchesSerial) {
  workload::SuiteParams suite_params;
  suite_params.num_tasks = 48;
  suite_params.num_etc = 2;
  suite_params.num_dag = 2;
  suite_params.master_seed = 777;
  const workload::ScenarioSuite suite(suite_params);
  const auto cases = {sim::GridCase::A, sim::GridCase::B};
  const std::vector<core::HeuristicKind> heuristics = {
      core::HeuristicKind::Slrh1, core::HeuristicKind::MaxMax};

  core::EvaluationParams serial_params;
  serial_params.tuner.coarse_step = 0.25;
  serial_params.tuner.fine_step = 0.0;
  serial_params.tuner.parallel = false;
  serial_params.parallel_cells = false;
  core::EvaluationParams parallel_params = serial_params;
  parallel_params.tuner.parallel = true;
  parallel_params.parallel_cells = true;

  const auto serial = core::evaluate_matrix(suite, cases, heuristics, serial_params);
  const auto parallel =
      core::evaluate_matrix(suite, cases, heuristics, parallel_params);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const auto& a = serial.cells[c];
    const auto& b = parallel.cells[c];
    SCOPED_TRACE("cell " + sim::to_string(a.grid_case) + "/" +
                 core::to_string(a.heuristic));
    EXPECT_EQ(a.grid_case, b.grid_case);
    EXPECT_EQ(a.heuristic, b.heuristic);
    EXPECT_EQ(a.feasible_count, b.feasible_count);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t s = 0; s < a.scenarios.size(); ++s) {
      const auto& x = a.scenarios[s];
      const auto& y = b.scenarios[s];
      SCOPED_TRACE("scenario " + std::to_string(s));
      EXPECT_EQ(x.etc_index, y.etc_index);
      EXPECT_EQ(x.dag_index, y.dag_index);
      EXPECT_EQ(x.upper_bound, y.upper_bound);
      EXPECT_EQ(x.tune.found, y.tune.found);
      EXPECT_EQ(x.tune.alpha, y.tune.alpha);  // exact
      EXPECT_EQ(x.tune.beta, y.tune.beta);    // exact
      expect_identical(x.tune.best, y.tune.best,
                       suite.make(a.grid_case, x.etc_index, x.dag_index),
                       "tuned best");
    }
    // Accumulators fold in suite order on both paths -> bit-identical.
    EXPECT_EQ(a.t100.mean(), b.t100.mean());
    EXPECT_EQ(a.vs_bound.mean(), b.vs_bound.mean());
    EXPECT_EQ(a.alpha.mean(), b.alpha.mean());
    EXPECT_EQ(a.beta.mean(), b.beta.mean());
  }
}

TEST(Determinism, TunerWithSharedCacheMatchesReference) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 48);
  const core::ScenarioCache shared(scenario);
  core::TunerParams tuner;
  tuner.coarse_step = 0.25;  // small grid: this is a determinism test, not a sweep
  tuner.fine_step = 0.0;

  const auto reference_solver = [&](const core::Weights& w) {
    core::SlrhParams params;
    params.variant = core::SlrhVariant::V3;
    params.weights = w;
    return oracle::run_slrh_reference(scenario, params);
  };
  const auto cached_solver = [&](const core::Weights& w) {
    return core::run_heuristic(core::HeuristicKind::Slrh3, scenario, w, {},
                               core::AetSign::Reward, nullptr, &shared);
  };

  const auto reference = core::tune_weights(reference_solver, tuner);
  const auto cached = core::tune_weights(cached_solver, tuner);
  EXPECT_EQ(reference.found, cached.found);
  EXPECT_EQ(reference.alpha, cached.alpha);
  EXPECT_EQ(reference.beta, cached.beta);
  expect_identical(reference.best, cached.best, scenario, "tuner best run");
  ASSERT_EQ(reference.evaluated.size(), cached.evaluated.size());
  for (std::size_t i = 0; i < reference.evaluated.size(); ++i) {
    EXPECT_EQ(reference.evaluated[i].t100, cached.evaluated[i].t100) << "point " << i;
    EXPECT_EQ(reference.evaluated[i].feasible, cached.evaluated[i].feasible)
        << "point " << i;
  }
}

// The ScenarioCache build fans machine columns and per-task tables out over
// the pinned 4-worker pool; every entry must still equal the uncached
// expression it replaces, bit for bit.
TEST(Determinism, ParallelCacheBuildMatchesUncached) {
  ASSERT_GE(global_pool().size(), 2u);
  for (const auto& scenario : paper_shape_fixtures()) {
    const core::ScenarioCache cache(scenario);
    EXPECT_EQ(cache.columns_built(), scenario.num_machines());
    const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
    const auto num_machines = static_cast<MachineId>(scenario.num_machines());
    for (TaskId t = 0; t < num_tasks; ++t) {
      for (const VersionKind v : {VersionKind::Primary, VersionKind::Secondary}) {
        Cycles min_cycles = std::numeric_limits<Cycles>::max();
        for (MachineId m = 0; m < num_machines; ++m) {
          const double energy = core::exec_energy(scenario, t, m, v);
          ASSERT_EQ(cache.exec_cycles(t, m, v), scenario.exec_cycles(t, m, v));
          ASSERT_EQ(cache.exec_energy(t, m, v), energy);  // exact
          ASSERT_EQ(cache.energy_need(t, m, v),
                    energy + core::worst_case_outgoing_energy(scenario, t, m, v));
          min_cycles = std::min(min_cycles, scenario.exec_cycles(t, m, v));
        }
        ASSERT_EQ(cache.min_exec_cycles(t, v), min_cycles);
      }
      for (MachineId m = 0; m < num_machines; ++m) {
        ASSERT_EQ(cache.primary_compute_energy(t, m),
                  scenario.grid.machine(m).compute_power *
                      scenario.etc.seconds(t, m));  // exact
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared tables: a ScenarioCache is immutable after construction, so one
// cache may serve any number of runs — concurrent ones (the tuner's parallel
// probes share one per scenario) and every drive window of a churn run —
// without changing a single decision.

TEST(Determinism, ConcurrentRunsOnSharedCacheAreIdentical) {
  // TSan coverage of the read-only sharing contract: four threads map the
  // same scenario through one cache at once, two per variant; each must
  // reproduce its variant's single-threaded run bit for bit.
  const auto scenario = test::small_suite_scenario(sim::GridCase::B, 48);
  const core::ScenarioCache shared(scenario);
  const auto params_for = [&](core::SlrhVariant variant) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &shared;
    return params;
  };
  const std::vector<core::SlrhVariant> variants = {
      core::SlrhVariant::V1, core::SlrhVariant::V3, core::SlrhVariant::V1,
      core::SlrhVariant::V3};

  std::vector<core::MappingResult> concurrent(variants.size());
  std::vector<std::thread> runners;
  for (std::size_t r = 0; r < variants.size(); ++r) {
    runners.emplace_back([&, r] {
      concurrent[r] = core::run_slrh(scenario, params_for(variants[r]));
    });
  }
  for (auto& runner : runners) runner.join();

  for (std::size_t r = 0; r < variants.size(); ++r) {
    const auto alone = core::run_slrh(scenario, params_for(variants[r]));
    expect_identical(alone, concurrent[r], scenario,
                     to_string(variants[r]).c_str());
    EXPECT_EQ(concurrent[r].pools_built, alone.pools_built);
    EXPECT_EQ(concurrent[r].pools_reused, alone.pools_reused);
  }
}

TEST(Determinism, ChurnSharedCacheMatchesPerWindowTables) {
  // Without params.cache each drive window of a churn run builds its own
  // tables; with a shared cache every window reads the same ones. A mid-run
  // departure forces several windows and orphan recovery, under both
  // recovery policies.
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  const core::ScenarioCache shared(scenario);
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    for (const auto recovery :
         {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
      SCOPED_TRACE(core::to_string(recovery));
      core::SlrhParams params;
      params.variant = variant;
      params.weights = core::Weights::make(0.6, 0.3);
      const auto per_window = core::run_slrh_with_churn(scenario, params, recovery);
      params.cache = &shared;
      const auto cached = core::run_slrh_with_churn(scenario, params, recovery);

      EXPECT_GT(per_window.departures_processed, 0u);
      EXPECT_EQ(cached.departures_processed, per_window.departures_processed);
      EXPECT_EQ(cached.orphaned, per_window.orphaned);
      EXPECT_EQ(cached.invalidated, per_window.invalidated);
      EXPECT_EQ(cached.energy_forfeited, per_window.energy_forfeited);  // exact
      expect_identical(per_window.result, cached.result, scenario,
                       to_string(variant).c_str());
      EXPECT_EQ(cached.result.pools_built, per_window.result.pools_built);
      EXPECT_EQ(cached.result.pools_reused, per_window.result.pools_reused);
    }
  }
}

TEST(Determinism, NeverPresentMachineGetsNoWork) {
  // A machine whose presence window opens past the mapping horizon is
  // passed over by the sweep's availability check: it must receive no
  // subtask, and its cache column must not sway the run.
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].join = scenario.tau * 8;  // beyond the horizon
  scenario.machine_windows[1].depart = scenario.tau * 8 + 1;
  const core::ScenarioCache shared(scenario);
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    const auto local = core::run_slrh_with_churn(scenario, params);
    params.cache = &shared;
    const auto cached = core::run_slrh_with_churn(scenario, params);

    expect_identical(local.result, cached.result, scenario,
                     to_string(variant).c_str());
    // Its late departure is still processed, but it destroys nothing.
    EXPECT_EQ(local.orphaned, 0u);
    EXPECT_EQ(local.invalidated, 0u);
    ASSERT_GT(local.result.assigned, 0u);
    const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
    for (TaskId t = 0; t < num_tasks; ++t) {
      if (!local.result.schedule->is_assigned(t)) continue;
      EXPECT_NE(local.result.schedule->assignment(t).machine, MachineId{1})
          << "task " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Pool reuse: the cross-tick skip verdicts are a pure acceleration of the
// per-tick machine sweep — they must leave every schedule bit-identical to
// the rebuild-every-scope sweep, with recorder AND ledger attached (the
// observers must not be able to tell the difference either).

core::SlrhParams serial_sweep_params(core::SlrhVariant variant) {
  core::SlrhParams params;
  params.variant = variant;
  params.weights = core::Weights::make(0.6, 0.3);
  params.pool_reuse = false;
  return params;
}

TEST(Determinism, SlrhPoolReuseMatchesRebuild) {
  for (const auto& scenario : paper_shape_fixtures()) {
    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      auto params = serial_sweep_params(variant);
      const auto serial = core::run_slrh(scenario, params);

      obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
      obs::TaskLedger ledger(scenario.num_tasks());
      params.recorder = &recorder;
      params.ledger = &ledger;
      params.pool_reuse = true;
      const auto reused = core::run_slrh(scenario, params);

      expect_identical(serial, reused, scenario, to_string(variant).c_str());
      // A skipped scope is one the serial path would have built exactly one
      // pool for and committed nothing from, so the forgone builds are
      // countable: built + reused must equal the serial build count.
      EXPECT_EQ(reused.pools_built + reused.pools_reused, serial.pools_built);
      EXPECT_GT(reused.pools_reused, 0u);
    }
  }
}

TEST(Determinism, ChurnPoolReuseMatchesRebuild) {
  auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    auto params = serial_sweep_params(variant);
    const auto serial = core::run_slrh_with_churn(scenario, params);

    obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
    obs::TaskLedger ledger(scenario.num_tasks());
    params.recorder = &recorder;
    params.ledger = &ledger;
    params.pool_reuse = true;
    const auto reused = core::run_slrh_with_churn(scenario, params);

    EXPECT_GT(serial.departures_processed, 0u);
    EXPECT_EQ(reused.departures_processed, serial.departures_processed);
    EXPECT_EQ(reused.orphaned, serial.orphaned);
    EXPECT_EQ(reused.invalidated, serial.invalidated);
    EXPECT_EQ(reused.energy_forfeited, serial.energy_forfeited);  // exact
    expect_identical(serial.result, reused.result, scenario,
                     to_string(variant).c_str());
    EXPECT_EQ(reused.result.pools_built + reused.result.pools_reused,
              serial.result.pools_built);
    EXPECT_GT(reused.result.pools_reused, 0u);
  }
}

}  // namespace
}  // namespace ahg
