#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <string>

#include "core/validate.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg::core {
namespace {

workload::Scenario base_scenario(std::size_t num_tasks = 96) {
  return test::small_suite_scenario(sim::GridCase::A, num_tasks);
}

ValidateOptions lax_options() {
  ValidateOptions lax;
  lax.require_complete = false;
  lax.require_within_tau = false;
  return lax;
}

TEST(AdaptAlpha, ShrinksWithLostCapacity) {
  const auto full = base_scenario();
  auto degraded = full;
  degraded.grid = full.grid.without_machine(1);
  degraded.etc = full.etc.without_machine(1);
  const Weights w = Weights::make(0.6, 0.2);
  const Weights adapted = adapt_alpha(w, full, degraded);
  EXPECT_LT(adapted.alpha, w.alpha);
  EXPECT_GE(adapted.beta, w.beta);  // beta takes a share of the freed weight
  EXPECT_NO_THROW(adapted.validate());
}

TEST(AdaptAlpha, IdenticalGridsLeaveWeightsUnchanged) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.2);
  const Weights adapted = adapt_alpha(w, s, s);
  EXPECT_NEAR(adapted.alpha, w.alpha, 1e-12);
  EXPECT_NEAR(adapted.beta, w.beta, 1e-12);
}

TEST(AdaptAlpha, LosingFastMachineCutsMoreThanSlow) {
  const auto full = base_scenario();
  auto no_fast = full;
  no_fast.grid = full.grid.without_machine(1);  // fast
  no_fast.etc = full.etc.without_machine(1);
  auto no_slow = full;
  no_slow.grid = full.grid.without_machine(3);  // slow
  no_slow.etc = full.etc.without_machine(3);
  const Weights w = Weights::make(0.6, 0.2);
  EXPECT_LT(adapt_alpha(w, full, no_fast).alpha, adapt_alpha(w, full, no_slow).alpha);
}

TEST(LossRun, ProducesValidScheduleOnDegradedGrid) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  EXPECT_EQ(outcome.degraded_scenario.num_machines(), s.num_machines() - 1);
  const auto report = validate_schedule(outcome.degraded_scenario,
                                        *outcome.result.schedule, lax_options());
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(LossRun, NoWorkOnLostMachineAfterLoss) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 0;
  event.time = s.tau / 3;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  // The final schedule lives on the degraded grid — it simply has no slot
  // for the lost machine; every assignment's machine id must be in range.
  const auto& schedule = *outcome.result.schedule;
  EXPECT_EQ(schedule.num_machines(), s.num_machines() - 1);
  for (const TaskId t : schedule.assignment_order()) {
    EXPECT_LT(schedule.assignment(t).machine,
              static_cast<MachineId>(schedule.num_machines()));
  }
}

TEST(LossRun, LossAtTimeZeroEqualsDegradedRun) {
  // Losing a machine before anything is scheduled must match running on the
  // degraded grid from scratch with the adapted weights.
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 1;
  event.time = 0;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  EXPECT_EQ(outcome.discarded, 0u);
  EXPECT_EQ(outcome.completed_on_lost_machine, 0u);

  SlrhParams params;
  params.weights = outcome.adapted_weights;
  const auto direct = run_slrh(outcome.degraded_scenario, params);
  EXPECT_EQ(outcome.result.t100, direct.t100);
  EXPECT_EQ(outcome.result.aet, direct.aet);
}

TEST(LossRun, DiscardedSetIsAncestorClosed) {
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 2;
  event.time = s.tau / 2;
  const auto outcome = run_slrh_with_loss(s, Weights::make(0.6, 0.3), event);
  // Every assigned task's parents are assigned in the final schedule — the
  // validator checks this, but assert the specific property here too.
  const auto& schedule = *outcome.result.schedule;
  for (const TaskId t : schedule.assignment_order()) {
    for (const TaskId parent : s.dag.parents(t)) {
      EXPECT_TRUE(schedule.is_assigned(parent))
          << "task " << t << " kept but parent " << parent << " missing";
    }
  }
}

TEST(LossRun, LateLossPreservesMostWork) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent early;
  early.machine = 1;
  early.time = s.tau / 8;
  MachineLossEvent late;
  late.machine = 1;
  late.time = s.tau;
  const auto early_outcome = run_slrh_with_loss(s, w, early);
  const auto late_outcome = run_slrh_with_loss(s, w, late);
  // A loss at tau (after the whole window) can only discard work that was
  // actually placed on the machine; an early loss leaves more time for the
  // survivors to recover. Both must remain valid; the late loss discards at
  // least as much completed work.
  EXPECT_GE(late_outcome.completed_on_lost_machine,
            early_outcome.completed_on_lost_machine);
}

TEST(LossRun, AdaptFlagControlsWeights) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent event;
  event.machine = 1;
  event.time = s.tau / 4;
  const auto adapted = run_slrh_with_loss(s, w, event, SlrhClockParams{}, true);
  const auto frozen = run_slrh_with_loss(s, w, event, SlrhClockParams{}, false);
  EXPECT_LT(adapted.adapted_weights.alpha, w.alpha);
  EXPECT_DOUBLE_EQ(frozen.adapted_weights.alpha, w.alpha);
}

TEST(LossRun, UnaffordableHoldIsDiscardedNotThrown) {
  // Machine 2's loss at 3/8 tau leaves a kept task whose worst-case output
  // hold its machine can no longer back (the original hold was settled
  // cheaply and the headroom spent since). The shared recovery discards it
  // and its mapped descendants instead of overdrawing the battery.
  const auto s = base_scenario();
  MachineLossEvent event;
  event.machine = 2;
  event.time = s.tau * 3 / 8;
  std::optional<LossRunOutcome> outcome;
  ASSERT_NO_THROW(outcome.emplace(run_slrh_with_loss(s, Weights::make(0.9, 0.05), event)));
  const auto report = validate_schedule(outcome->degraded_scenario,
                                        *outcome->result.schedule, lax_options());
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(LossRun, EveryLossPointValidates) {
  const workload::Scenario scenarios[] = {
      base_scenario(), test::small_suite_scenario(sim::GridCase::A, 48, 20040426, 1, 0)};
  const Weights weights[] = {Weights::make(0.6, 0.3), Weights::make(0.9, 0.05)};
  std::size_t runs = 0;
  for (const auto& s : scenarios) {
    for (std::size_t m = 0; m < s.num_machines(); ++m) {
      for (Cycles q = 1; q <= 7; ++q) {
        for (const SlrhVariant variant : {SlrhVariant::V1, SlrhVariant::V3}) {
          for (const Weights& w : weights) {
            ++runs;
            MachineLossEvent event;
            event.machine = static_cast<MachineId>(m);
            event.time = s.tau * q / 8;
            SlrhClockParams clock;
            clock.variant = variant;
            const std::string where = "|T|=" + std::to_string(s.num_tasks()) +
                                      " machine " + std::to_string(m) + " at " +
                                      std::to_string(q) + "/8 tau, " +
                                      to_string(variant) + ", alpha " +
                                      std::to_string(w.alpha);
            std::optional<LossRunOutcome> outcome;
            try {
              outcome.emplace(run_slrh_with_loss(s, w, event, clock));
            } catch (const std::exception& error) {
              ADD_FAILURE() << where << " threw: " << error.what();
              continue;
            }
            const auto report = validate_schedule(
                outcome->degraded_scenario, *outcome->result.schedule, lax_options());
            EXPECT_TRUE(report.ok()) << where << ": " << report.str();
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 224u);
}

TEST(LossRun, RejectsBadEvents) {
  const auto s = base_scenario();
  const Weights w = Weights::make(0.6, 0.3);
  MachineLossEvent bad;
  bad.machine = 99;
  bad.time = 10;
  EXPECT_THROW(run_slrh_with_loss(s, w, bad), PreconditionError);
  bad.machine = 0;
  bad.time = s.tau + 1;
  EXPECT_THROW(run_slrh_with_loss(s, w, bad), PreconditionError);
}

}  // namespace
}  // namespace ahg::core
