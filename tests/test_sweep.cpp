// SweepContext unit contract (verdict lifecycle) plus the randomized property
// test for pool reuse: over random scenarios, seeds and churn, the engine
// must produce the schedule of the reference driver, and the frontier
// revision must retire verdicts whenever a commit could have changed a
// machine's pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/churn.hpp"
#include "core/sweep.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tests/oracles/slrh_reference.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

// Make the parallel ScenarioCache build real even on single-core hosts (see
// the same pin in test_determinism.cpp); must precede the first
// global_pool() use.
[[maybe_unused]] const bool kForceParallelPool = [] {
  configure_global_pool(4);
  return true;
}();

TEST(Sweep, VerdictSkipsOnlyWhileEpochsStandAndHorizonShort) {
  core::SweepContext sweep(2);
  const Cycles horizon = 100;

  // No verdict recorded yet: never skip.
  EXPECT_FALSE(sweep.can_skip(0, 0, horizon, 0));

  // Scope proved nothing arrives before cycle 500.
  sweep.record_verdict(0, 500, /*frontier_revision=*/7);

  // Same revision, clock + horizon below the proven arrival: skip.
  EXPECT_TRUE(sweep.can_skip(0, 0, horizon, 7));
  EXPECT_TRUE(sweep.can_skip(0, 399, horizon, 7));
  // clock + horizon reaches the arrival: the pool could now map it.
  EXPECT_FALSE(sweep.can_skip(0, 400, horizon, 7));
  // Frontier moved (new ready task anywhere): verdict is stale.
  EXPECT_FALSE(sweep.can_skip(0, 0, horizon, 8));
  // Other machines never inherit the verdict.
  EXPECT_FALSE(sweep.can_skip(1, 0, horizon, 7));
}

TEST(Sweep, EmptyPoolVerdictSkipsAtEveryClock) {
  core::SweepContext sweep(1);
  sweep.record_verdict(0, core::SweepContext::kNoArrival, 0);
  EXPECT_TRUE(sweep.can_skip(0, 0, 100, 0));
  EXPECT_TRUE(sweep.can_skip(0, 1'000'000'000, 100, 0));
}

TEST(Sweep, ReRecordedVerdictReplacesBoundAndRevision) {
  core::SweepContext sweep(1);
  sweep.record_verdict(0, 500, 4);
  EXPECT_TRUE(sweep.can_skip(0, 300, 100, 4));

  // A later scope proved an earlier arrival: the tighter bound wins.
  sweep.record_verdict(0, 200, 4);
  EXPECT_FALSE(sweep.can_skip(0, 300, 100, 4));
  EXPECT_TRUE(sweep.can_skip(0, 99, 100, 4));

  // Re-recorded at a newer frontier revision: the old revision no longer
  // matches, the new one does.
  sweep.record_verdict(0, 500, 5);
  EXPECT_FALSE(sweep.can_skip(0, 300, 100, 4));
  EXPECT_TRUE(sweep.can_skip(0, 300, 100, 5));
}

// ---------------------------------------------------------------------------
// Randomized verdict-invalidation property: across random small scenarios
// (varying seed, size, grid case, release spread, with and without churn)
// and all three variants, the engine must produce the reference driver's
// schedule (tests/oracles; under churn its recovery replay, in both recovery
// modes) with bit-identical assignments, counts and energy, and the reuse
// ledger must balance (built + reused == reference builds). This is the
// test that catches a missing revision bump: a commit or ready-set change
// the frontier failed to count makes a verdict survive a change to the
// pool, and the skipped scope diverges.

void expect_identical(const core::MappingResult& baseline,
                      const core::MappingResult& fast,
                      const workload::Scenario& scenario, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(baseline.complete, fast.complete);
  EXPECT_EQ(baseline.assigned, fast.assigned);
  EXPECT_EQ(baseline.t100, fast.t100);
  EXPECT_EQ(baseline.aet, fast.aet);
  EXPECT_EQ(baseline.tec, fast.tec);  // exact: bit-identical doubles
  ASSERT_NE(baseline.schedule, nullptr);
  ASSERT_NE(fast.schedule, nullptr);
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    ASSERT_EQ(baseline.schedule->is_assigned(t), fast.schedule->is_assigned(t))
        << "task " << t;
    if (!baseline.schedule->is_assigned(t)) continue;
    const auto& a = baseline.schedule->assignment(t);
    const auto& b = fast.schedule->assignment(t);
    EXPECT_EQ(a.machine, b.machine) << "task " << t;
    EXPECT_EQ(a.version, b.version) << "task " << t;
    EXPECT_EQ(a.start, b.start) << "task " << t;
    EXPECT_EQ(a.finish, b.finish) << "task " << t;
    EXPECT_EQ(a.energy, b.energy) << "task " << t;  // exact
  }
}

TEST(Sweep, RandomizedDrawsMatchReference) {
  SplitMix64 meta_rng(0xA5EEDC0FFEEull);
  const sim::GridCase cases[] = {sim::GridCase::A, sim::GridCase::B,
                                 sim::GridCase::C};
  std::size_t reused = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto grid_case = cases[meta_rng.next() % 3];
    const auto num_tasks = 32 + static_cast<std::size_t>(meta_rng.next() % 3) * 16;
    const auto seed = static_cast<std::uint64_t>(1000 + meta_rng.next() % 9000);
    auto scenario = test::small_suite_scenario(grid_case, num_tasks, seed);
    if (trial % 2 == 0) {
      // Half the trials add release spread: frontier revisions then churn
      // from arrivals as well as commits.
      scenario.releases = workload::generate_release_times(
          workload::ReleaseParams{0.25}, scenario.dag, scenario.tau,
          seed + 17);
    }
    const bool with_churn = trial % 3 == 0;
    if (with_churn) {
      workload::ChurnParams churn;
      churn.departures_per_machine = 2.0;
      churn.late_join_fraction = 0.25;
      scenario.machine_windows = workload::generate_machine_churn(
          churn, scenario.num_machines(), scenario.tau, seed + 31).windows;
      // Machine 1 always walks out early, so every churned draw orphans work.
      scenario.machine_windows[1] = {
          0, std::min(scenario.machine_windows[1].depart, scenario.tau / 8)};
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " tasks " +
                 std::to_string(num_tasks) + " seed " + std::to_string(seed));

    for (const auto variant :
         {core::SlrhVariant::V1, core::SlrhVariant::V2, core::SlrhVariant::V3}) {
      for (const auto recovery :
           {core::ChurnRecovery::Remap, core::ChurnRecovery::Degrade}) {
        if (!with_churn && recovery == core::ChurnRecovery::Degrade) continue;
        core::SlrhParams params;
        params.variant = variant;
        params.weights = core::Weights::make(0.6, 0.3);
        const auto reference =
            oracle::run_slrh_with_churn_reference(scenario, params, recovery);
        const auto engine = core::run_slrh_with_churn(scenario, params, recovery);
        const std::string label =
            core::to_string(variant) + " recovery=" + core::to_string(recovery);
        expect_identical(reference.result, engine.result, scenario, label.c_str());
        EXPECT_EQ(engine.orphaned, reference.orphaned) << label;
        EXPECT_EQ(engine.invalidated, reference.invalidated) << label;
        EXPECT_EQ(engine.result.pools_built + engine.result.pools_reused,
                  reference.result.pools_built)
            << label;
        EXPECT_EQ(engine.result.iterations, reference.result.iterations) << label;
        reused += engine.result.pools_reused;
      }
    }
  }
  EXPECT_GT(reused, 0u);
}

}  // namespace
}  // namespace ahg
