#include "core/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feasibility.hpp"
#include "core/slrh.hpp"
#include "sim/comm.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg::core {
namespace {

using test::EdgeSpec;
using test::make_scenario;

// Grid: machines 0,1 fast (8 Mbit/s), 2 slow (4 Mbit/s).
sim::GridConfig mixed_grid() { return sim::GridConfig::make(2, 1); }

TEST(Placement, RootTaskStartsAtNotBefore) {
  const auto s = make_scenario(mixed_grid(), 1, {}, {{10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 1);
  const auto plan = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 25);
  EXPECT_EQ(plan.start, 25);
  EXPECT_EQ(plan.duration, 100);  // 10 s
  EXPECT_EQ(plan.finish(), 125);
  EXPECT_DOUBLE_EQ(plan.exec_energy, 1.0);
  EXPECT_TRUE(plan.comms.empty());
  EXPECT_EQ(plan.arrival, 0);
}

TEST(Placement, SameMachineChildStartsAtParentFinish) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 5e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  const auto plan = plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0);
  EXPECT_EQ(plan.start, 100);  // right after the parent, no transfer
  EXPECT_TRUE(plan.comms.empty());
  ASSERT_EQ(plan.released_parents.size(), 1u);
  EXPECT_EQ(plan.released_parents[0], 0);
}

TEST(Placement, CrossMachineChildWaitsForTransfer) {
  // 8 Mbit over fast->fast (8 Mbit/s) = 1 s = 10 cycles.
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  const auto plan = plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_EQ(plan.comms[0].start, 100);     // parent finish
  EXPECT_EQ(plan.comms[0].duration, 10);   // 1 s
  EXPECT_DOUBLE_EQ(plan.comms[0].energy, 0.2);  // 1 s * 0.2 u/s from fast sender
  EXPECT_EQ(plan.arrival, 110);
  EXPECT_EQ(plan.start, 110);
}

TEST(Placement, SecondaryParentSendsTenPercent) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule,
                   plan_placement(s, schedule, 0, 0, VersionKind::Secondary, 0));
  const auto plan = plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.comms[0].bits, 8e5);  // 10 % of the primary output
  EXPECT_EQ(plan.comms[0].duration, 1);       // 0.1 s
}

TEST(Placement, TransfersToSameReceiverSerialize) {
  // Two parents on different machines feeding one child: the child machine's
  // rx channel admits one transfer at a time.
  const auto s = make_scenario(
      mixed_grid(), 3, {{0, 2, 8e6}, {1, 2, 8e6}},
      {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 3);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Child on machine 2 (slow): each 8 Mbit transfer at min(8,4)=4 Mbit/s = 2 s.
  const auto plan = plan_placement(s, schedule, 2, 2, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 2u);
  EXPECT_EQ(plan.comms[0].start, 100);
  EXPECT_EQ(plan.comms[0].duration, 20);
  EXPECT_EQ(plan.comms[1].start, 120);  // serialized on the rx channel
  EXPECT_EQ(plan.arrival, 140);
  EXPECT_EQ(plan.start, 140);
}

TEST(Placement, TransfersFromSameSenderSerialize) {
  // One parent feeding two children on different machines: the parent's tx
  // channel admits one transfer at a time.
  const auto s = make_scenario(
      mixed_grid(), 3, {{0, 1, 8e6}, {0, 2, 8e6}},
      {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 3);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Transfer 0->1 occupies tx(0) during [100, 110).
  const auto plan = plan_placement(s, schedule, 2, 2, VersionKind::Primary, 0);
  ASSERT_EQ(plan.comms.size(), 1u);
  EXPECT_EQ(plan.comms[0].start, 110);  // tx(0) busy until 110
  EXPECT_EQ(plan.comms[0].duration, 20);
}

TEST(Placement, NotBeforeBlocksBackfillForSlrh) {
  const auto s = make_scenario(mixed_grid(), 2, {},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  // Machine 0 busy [200, 300); a 100-cycle job fits before it only if
  // backfill is allowed (not_before = 0).
  schedule.add_assignment(1, 0, VersionKind::Primary, 200, 100, 1.0);
  const auto backfill = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0);
  EXPECT_EQ(backfill.start, 0);  // Max-Max style hole filling
  const auto clocked = plan_placement(s, schedule, 0, 0, VersionKind::Primary, 150);
  EXPECT_EQ(clocked.start, 300);  // hole [150,200) too small for 100 cycles
}

TEST(Placement, CommitChargesAndReserves) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  // Exec energy 1.0 charged; worst-case outgoing reservation: 8 Mbit at
  // 4 Mbit/s (grid min) = 2 s * 0.2 = 0.4 u.
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.4);
  EXPECT_TRUE(schedule.energy().has_reservation(sim::edge_key(0, 1)));

  commit_placement(s, schedule, plan_placement(s, schedule, 1, 1, VersionKind::Primary, 0));
  // Actual transfer fast->fast: 1 s * 0.2 = 0.2 u, settled against the 0.4
  // reservation; child exec charged on machine 1.
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 1.2);
  EXPECT_DOUBLE_EQ(schedule.energy().spent(1), 1.0);
}

TEST(Placement, CommitReleasesSameMachineReservation) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 8e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  commit_placement(s, schedule, plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0));
  EXPECT_DOUBLE_EQ(schedule.energy().reserved(0), 0.0);  // released, not charged
  EXPECT_DOUBLE_EQ(schedule.energy().spent(0), 2.0);     // two executions only
  EXPECT_TRUE(schedule.comm_events().empty());
}

TEST(Placement, PlanRejectsAssignedTaskOrUnassignedParent) {
  const auto s = make_scenario(mixed_grid(), 2, {{0, 1, 1e6}},
                               {{10.0, 10.0, 100.0}, {10.0, 10.0, 100.0}}, 100000);
  sim::Schedule schedule(s.grid, 2);
  EXPECT_THROW(plan_placement(s, schedule, 1, 0, VersionKind::Primary, 0),
               PreconditionError);  // parent unmapped
  commit_placement(s, schedule, plan_placement(s, schedule, 0, 0, VersionKind::Primary, 0));
  EXPECT_THROW(plan_placement(s, schedule, 0, 1, VersionKind::Primary, 0),
               PreconditionError);  // already assigned
}


TEST(Placement, ArrivalLowerBoundNeverExceedsPlan) {
  // Drive SLRH part-way on suite scenarios (some with link outages, so the
  // channels carry pre-booked blocks besides the committed transfers), then
  // bound every planable (task, machine, not_before) against the plan.
  std::vector<workload::Scenario> scenarios;
  scenarios.push_back(test::small_suite_scenario(sim::GridCase::A, 64));
  scenarios.push_back(test::small_suite_scenario(sim::GridCase::C, 64, 77));
  for (const auto grid_case : {sim::GridCase::A, sim::GridCase::B}) {
    auto outages = test::small_suite_scenario(grid_case, 64, 4242);
    workload::OutageParams outage_params;
    outage_params.outages_per_machine = 6;
    outages.link_outages = workload::generate_link_outages(
        outage_params, outages.num_machines(), outages.tau, 13);
    scenarios.push_back(std::move(outages));
  }

  std::size_t checked = 0;
  std::size_t tight = 0;       // equality asserted
  std::size_t slack = 0;       // contention made the bound strict
  std::size_t secondary = 0;   // bounds over a secondary-version parent
  std::size_t mixed = 0;       // bounds over local AND cross-machine parents
  for (const auto& s : scenarios) {
    const auto num_tasks = static_cast<TaskId>(s.num_tasks());
    const auto num_machines = static_cast<MachineId>(s.num_machines());
    for (const auto variant : {SlrhVariant::V1, SlrhVariant::V3}) {
      for (const Cycles stop : {s.tau / 8, s.tau / 3}) {
        SlrhParams params;
        params.variant = variant;
        params.weights = Weights::make(0.6, 0.3);
        auto schedule = make_schedule(s);
        MappingResult stats;
        drive_slrh(s, params, *schedule, 0, stop, stats);

        for (TaskId t = 0; t < num_tasks; ++t) {
          if (schedule->is_assigned(t)) continue;
          const auto& parents = s.dag.parents(t);
          if (!std::all_of(parents.begin(), parents.end(), [&](TaskId p) {
                return schedule->is_assigned(p);
              })) {
            continue;
          }
          for (MachineId m = 0; m < num_machines; ++m) {
            for (const Cycles not_before : {Cycles{0}, stop / 2, stop, stop + 37}) {
              const Cycles bound = arrival_lower_bound(s, *schedule, t, m, not_before);
              const auto plan =
                  plan_placement(s, *schedule, t, m, VersionKind::Primary, not_before);
              ASSERT_LE(bound, plan.arrival)
                  << "task " << t << " machine " << m << " not_before " << not_before;
              ++checked;

              // Equality: at most one cross-machine transfer, and its
              // channels free from the moment it may start.
              std::size_t cross = 0;
              std::size_t local = 0;
              bool channels_free = true;
              for (const TaskId p : parents) {
                const auto& pa = schedule->assignment(p);
                if (pa.version == VersionKind::Secondary) ++secondary;
                const double bits = s.edge_bits(p, t, pa.version);
                if (pa.machine == m || bits <= 0.0) {
                  ++local;
                  continue;
                }
                ++cross;
                const Cycles earliest = std::max(not_before, pa.finish);
                const Cycles dur = sim::transfer_cycles(
                    bits, s.grid.machine(pa.machine), s.grid.machine(m));
                channels_free = channels_free &&
                                schedule->tx_timeline(pa.machine).is_free(earliest, dur) &&
                                schedule->rx_timeline(m).is_free(earliest, dur);
              }
              if (local > 0 && cross > 0) ++mixed;
              if (cross <= 1 && channels_free) {
                EXPECT_EQ(bound, plan.arrival)
                    << "task " << t << " machine " << m << " not_before " << not_before;
                ++tight;
              } else if (bound < plan.arrival) {
                ++slack;
              }
            }
          }
        }
      }
    }
  }
  // The sweep must reach every case the bound distinguishes.
  EXPECT_GT(checked, 1000u);
  EXPECT_GT(tight, 0u);
  EXPECT_GT(slack, 0u);
  EXPECT_GT(secondary, 0u);
  EXPECT_GT(mixed, 0u);
}

}  // namespace
}  // namespace ahg::core
