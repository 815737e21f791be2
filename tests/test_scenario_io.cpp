#include "workload/scenario_io.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "core/churn.hpp"
#include "support/contract.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg::workload {
namespace {

Scenario sample() { return test::small_suite_scenario(sim::GridCase::A, 24); }

TEST(ScenarioIo, RoundTripsExactly) {
  const Scenario original = sample();
  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);

  EXPECT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_EQ(loaded.num_machines(), original.num_machines());
  EXPECT_EQ(loaded.tau, original.tau);
  EXPECT_DOUBLE_EQ(loaded.versions.secondary_time_factor,
                   original.versions.secondary_time_factor);
  for (std::size_t j = 0; j < original.num_machines(); ++j) {
    const auto m = static_cast<MachineId>(j);
    EXPECT_EQ(loaded.grid.machine(m).cls, original.grid.machine(m).cls);
    EXPECT_DOUBLE_EQ(loaded.grid.machine(m).battery_capacity,
                     original.grid.machine(m).battery_capacity);
    EXPECT_DOUBLE_EQ(loaded.grid.machine(m).bandwidth_bps,
                     original.grid.machine(m).bandwidth_bps);
  }
  for (std::size_t i = 0; i < original.num_tasks(); ++i) {
    const auto t = static_cast<TaskId>(i);
    for (std::size_t j = 0; j < original.num_machines(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.etc.seconds(t, static_cast<MachineId>(j)),
                       original.etc.seconds(t, static_cast<MachineId>(j)));
    }
    ASSERT_EQ(loaded.dag.children(t).size(), original.dag.children(t).size());
    for (const TaskId c : original.dag.children(t)) {
      EXPECT_TRUE(loaded.dag.has_edge(t, c));
      EXPECT_DOUBLE_EQ(loaded.data.bits(t, c), original.data.bits(t, c));
    }
  }
}

TEST(ScenarioIo, LoadedScenarioValidates) {
  std::stringstream buffer;
  write_scenario(buffer, sample());
  EXPECT_NO_THROW(read_scenario(buffer).validate());
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer;
  write_scenario(buffer, sample());
  const std::string with_noise = "# leading comment\n\n" + buffer.str() + "\n# trailing\n";
  std::istringstream noisy(with_noise);
  EXPECT_NO_THROW(read_scenario(noisy));
}

TEST(ScenarioIo, RejectsMissingHeader) {
  std::istringstream input("machines 1\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsBadMachineClass) {
  std::istringstream input(
      "adhoc-grid-scenario v1\nmachines 1\nmachine quantum 1 1 1 1\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsMissingEtcEntry) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 2\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\n");  // entry for task 1 missing
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsDuplicateEtcEntry) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\netc 0 0 11.0\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsOutOfRangeIndices) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 5 10.0\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsCycle) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 2\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\netc 1 0 10.0\n"
      "edge 0 1 100\nedge 1 0 100\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, RejectsUnknownKeyword) {
  std::istringstream input(
      "adhoc-grid-scenario v1\n"
      "machines 1\nmachine fast 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\nfrobnicate 1 2 3\n");
  EXPECT_THROW(read_scenario(input), PreconditionError);
}

TEST(ScenarioIo, ErrorMentionsLineNumber) {
  std::istringstream input("adhoc-grid-scenario v1\nmachines 0\n");
  try {
    read_scenario(input);
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

/// Parse `input`, expecting a PreconditionError located at `line`.
void expect_error_at_line(const std::string& input, int line) {
  std::istringstream stream(input);
  try {
    read_scenario(stream);
    FAIL() << "accepted:\n" << input;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << e.what();
  }
}

/// A one-machine header whose tasks line (line 4) is `tasks_line`.
std::string header_with(const std::string& tasks_line) {
  return "adhoc-grid-scenario v1\n"
         "machines 1\nmachine fast 580 0.1 0.2 8e6\n" +
         tasks_line + "\ntau 100\nversions 0.1 0.1\n";
}

TEST(ScenarioIo, RejectsTrailingFieldOnEtcLine) {
  expect_error_at_line(header_with("tasks 1") + "etc 0 0 7.38 junk\n", 7);
}

TEST(ScenarioIo, RejectsTrailingCharactersOnEtcNumber) {
  expect_error_at_line(header_with("tasks 1") + "etc 0 0 7.38xyz\n", 7);
}

TEST(ScenarioIo, RejectsTrailingFieldOnTasksLine) {
  expect_error_at_line(header_with("tasks 4 5") + "etc 0 0 7.38\n", 4);
}

TEST(ScenarioIo, RejectsTaskCountNotBackedByEtcLines) {
  // Sized only after the etc lines are counted: a located error, not a
  // multi-terabyte allocation.
  expect_error_at_line(header_with("tasks 4000000000000") + "etc 0 0 7.38\n", 4);
}

TEST(ScenarioIo, RejectsSignedTaskCount) {
  expect_error_at_line(header_with("tasks -4") + "etc 0 0 7.38\n", 4);
}

TEST(ScenarioIo, RoundTripsPresenceWindowsAndTheirChurnRun) {
  // Late joins, walk-outs and battery deaths survive a save/load, and the
  // reloaded scenario drives the same churn run: same departures, same
  // recovery tallies, same schedule.
  Scenario original = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  workload::ChurnParams churn;
  churn.departures_per_machine = 2.0;
  churn.late_join_fraction = 0.3;
  original.machine_windows = workload::generate_machine_churn(
      churn, original.num_machines(), original.tau, 2).windows;
  std::stringstream buffer;
  write_scenario(buffer, original);
  const Scenario loaded = read_scenario(buffer);

  ASSERT_EQ(loaded.machine_windows.size(), original.machine_windows.size());
  for (std::size_t j = 0; j < original.machine_windows.size(); ++j) {
    EXPECT_EQ(loaded.machine_windows[j].join, original.machine_windows[j].join);
    EXPECT_EQ(loaded.machine_windows[j].depart, original.machine_windows[j].depart);
  }

  core::SlrhParams params;
  params.variant = core::SlrhVariant::V3;
  params.weights = core::Weights::make(0.6, 0.3);
  const auto before = core::run_slrh_with_churn(original, params);
  const auto after = core::run_slrh_with_churn(loaded, params);
  ASSERT_GT(before.departures_processed, 0u);
  EXPECT_EQ(after.departures_processed, before.departures_processed);
  EXPECT_EQ(after.orphaned, before.orphaned);
  EXPECT_EQ(after.invalidated, before.invalidated);
  EXPECT_EQ(after.energy_forfeited, before.energy_forfeited);  // exact
  EXPECT_EQ(after.result.assigned, before.result.assigned);
  EXPECT_EQ(after.result.t100, before.result.t100);
  EXPECT_EQ(after.result.aet, before.result.aet);
  EXPECT_EQ(after.result.tec, before.result.tec);  // exact
  for (TaskId t = 0; t < static_cast<TaskId>(original.num_tasks()); ++t) {
    ASSERT_EQ(after.result.schedule->is_assigned(t),
              before.result.schedule->is_assigned(t));
    if (!before.result.schedule->is_assigned(t)) continue;
    EXPECT_EQ(after.result.schedule->assignment(t).machine,
              before.result.schedule->assignment(t).machine);
    EXPECT_EQ(after.result.schedule->assignment(t).start,
              before.result.schedule->assignment(t).start);
  }
}

TEST(ScenarioIo, WritesOnlyNonDefaultWindows) {
  Scenario scenario = sample();
  scenario.machine_windows.assign(scenario.num_machines(), Scenario::MachineWindow{});
  scenario.machine_windows[1].join = 40;
  scenario.machine_windows[2].depart = 900;
  std::stringstream buffer;
  write_scenario(buffer, scenario);
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\nwindow 1 40 never\n"), std::string::npos);
  EXPECT_NE(text.find("\nwindow 2 0 900\n"), std::string::npos);
  EXPECT_EQ(text.find("window 0 "), std::string::npos);

  const Scenario loaded = read_scenario(buffer);
  ASSERT_EQ(loaded.machine_windows.size(), scenario.num_machines());
  EXPECT_EQ(loaded.machine_windows[0].join, 0);
  EXPECT_EQ(loaded.machine_windows[0].depart, Scenario::kNoDeparture);
  EXPECT_EQ(loaded.machine_windows[1].join, 40);
  EXPECT_EQ(loaded.machine_windows[1].depart, Scenario::kNoDeparture);
  EXPECT_EQ(loaded.machine_windows[2].depart, 900);
}

TEST(ScenarioIo, RejectsBadWindowsWithTheirLine) {
  // A two-machine file whose first window line is line 10.
  const std::string header =
      "adhoc-grid-scenario v1\n"
      "machines 2\nmachine fast 580 0.1 0.2 8e6\nmachine slow 580 0.1 0.2 8e6\n"
      "tasks 1\ntau 100\nversions 0.1 0.1\n"
      "etc 0 0 10.0\netc 0 1 10.0\n";
  expect_error_at_line(header + "window 2 0 never\n", 10);      // no machine 2
  expect_error_at_line(header + "window 1 -5 never\n", 10);     // join < 0
  expect_error_at_line(header + "window 1 50 50\n", 10);        // depart == join
  expect_error_at_line(header + "window 1 50 20\n", 10);        // depart < join
  expect_error_at_line(header + "window 1 0 sometimes\n", 10);  // not a clock
  expect_error_at_line(header + "window 1 0\n", 10);            // missing field
  expect_error_at_line(header + "window 1 0 90\nwindow 1 10 never\n", 11);
}

TEST(ScenarioIo, EveryMutatedLineIsAcceptedOrRejectedWithItsLine) {
  // Deterministic mutation sweep: each field of each line of a valid file
  // (releases, outages and presence windows included) replaced by a hostile
  // token, dropped, or followed by an extra one. The reader either accepts
  // the result (a valid scenario) or raises a PreconditionError naming that
  // line.
  Scenario scenario = test::small_suite_scenario(sim::GridCase::A, 6);
  scenario.releases.assign(scenario.num_tasks(), 0);
  scenario.releases[2] = 50;
  scenario.link_outages.push_back({1, 10, 5});
  scenario.machine_windows.assign(scenario.num_machines(), Scenario::MachineWindow{});
  scenario.machine_windows[1] = {10, Scenario::kNoDeparture};
  scenario.machine_windows[2] = {0, 500};
  std::stringstream buffer;
  write_scenario(buffer, scenario);
  std::vector<std::string> lines;
  for (std::string line; std::getline(buffer, line);) lines.push_back(line);

  const std::vector<std::string> tokens = {
      "-1", "0", "-0", "+3", "3.5", "1e3", "1e400", "nan", "x", "0x10",
      "2147483648", "9223372036854775807", "18446744073709551615",
      "99999999999999999999", "never", ""};
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> fields;
    std::istringstream split(lines[i]);
    for (std::string field; split >> field;) fields.push_back(field);
    std::vector<std::string> mutants = {lines[i] + " 7"};
    for (std::size_t k = 0; k < fields.size(); ++k) {
      for (const std::string& token : tokens) {
        std::string mutant;
        for (std::size_t f = 0; f < fields.size(); ++f) {
          const std::string& field = f == k ? token : fields[f];
          if (!field.empty()) mutant += (mutant.empty() ? "" : " ") + field;
        }
        mutants.push_back(mutant);
      }
    }
    for (const std::string& mutant : mutants) {
      std::string text;
      for (std::size_t j = 0; j < lines.size(); ++j) {
        text += (j == i ? mutant : lines[j]) + "\n";
      }
      std::istringstream input(text);
      try {
        read_scenario(input).validate();
      } catch (const PreconditionError& e) {
        ++rejected;
        // A rejection names a line: the mutated one, or (for a count or a
        // DAG property) the header or last line the check reports.
        EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
            << "line " << i + 1 << " as '" << mutant << "': " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "line " << i + 1 << " as '" << mutant
                      << "' escaped as a non-precondition error: " << e.what();
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ScenarioIo, FileRoundTrip) {
  const Scenario original = sample();
  const std::string path = ::testing::TempDir() + "/scenario_io_test.scn";
  save_scenario(path, original);
  const Scenario loaded = load_scenario(path);
  EXPECT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_EQ(loaded.tau, original.tau);
}

TEST(ScenarioIo, MissingFileThrows) {
  EXPECT_THROW(load_scenario("/nonexistent/path.scn"), PreconditionError);
}

}  // namespace
}  // namespace ahg::workload
