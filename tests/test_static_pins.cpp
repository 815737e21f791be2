// Bit-for-bit pins for the static mappers (Max-Max, Min-Min, OLB, Random).
//
// Every schedule below is reduced to one text line per task — machine,
// version, start, finish and energy (as a hex float) — and hashed; Max-Max
// runs also hash the task ledger's milestones and transition history. The
// digests were recorded from the hand-rolled frontiers the mappers kept
// before they moved onto core::ReadyFrontier, so any change in which task a
// mapper sees, or in what order, shows up here. A mismatch prints the key
// and the fresh digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <map>
#include <sstream>
#include <string>

#include "core/baselines.hpp"
#include "core/maxmax.hpp"
#include "support/task_ledger.hpp"
#include "tests/scenario_fixtures.hpp"
#include "workload/dynamics.hpp"

namespace ahg {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t schedule_digest(const workload::Scenario& scenario,
                              const core::MappingResult& result) {
  std::ostringstream os;
  os << std::hexfloat;
  os << result.complete << ' ' << result.assigned << ' ' << result.t100 << '\n';
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  for (TaskId t = 0; t < num_tasks; ++t) {
    os << t;
    if (result.schedule->is_assigned(t)) {
      const auto& a = result.schedule->assignment(t);
      os << ' ' << a.machine << ' ' << static_cast<int>(a.version) << ' ' << a.start
         << ' ' << a.finish << ' ' << a.energy;
    }
    os << '\n';
  }
  return fnv1a(os.str());
}

std::uint64_t ledger_digest(const obs::TaskLedger& ledger) {
  std::ostringstream os;
  for (const obs::TaskRecord& r : ledger.records()) {
    os << r.task << ' ' << static_cast<int>(r.state) << ' ' << r.released << ' '
       << r.frontier_ready << ' ' << r.first_pooled << ' ' << r.admitted_clock << ' '
       << r.machine << ' ' << static_cast<int>(r.version) << ' ' << r.arrival << ' '
       << r.exec_start << ' ' << r.exec_finish << ' ' << r.attempts << ':';
    for (const obs::TaskTransition& h : r.history) {
      os << ' ' << static_cast<int>(h.state) << '@' << h.clock << '/' << h.machine
         << '/' << static_cast<int>(h.version) << '/' << h.attempt;
    }
    os << '\n';
  }
  return fnv1a(os.str());
}

std::map<std::string, workload::Scenario> pin_fixtures() {
  std::map<std::string, workload::Scenario> fixtures;
  fixtures.emplace("A48", test::small_suite_scenario(sim::GridCase::A, 48));
  fixtures.emplace("B48", test::small_suite_scenario(sim::GridCase::B, 48));
  fixtures.emplace("C48", test::small_suite_scenario(sim::GridCase::C, 48));
  fixtures.emplace("B64", test::small_suite_scenario(sim::GridCase::B, 64, 4242));
  fixtures.emplace("C40", test::small_suite_scenario(sim::GridCase::C, 40, 7, 1, 1));
  // Release spread: the frontier must still hand over every task at once.
  auto released = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  released.releases = workload::generate_release_times(
      workload::ReleaseParams{0.3}, released.dag, released.tau, 11);
  fixtures.emplace("A64r", std::move(released));
  return fixtures;
}

/// Recorded digests, keyed "<fixture>/<mapper>/<config>".
const std::map<std::string, std::uint64_t> kPins = {
    {"A48/maxmax/notau", 0x13030f63162a1d6dULL},
    {"A48/maxmax/notau/ledger", 0x299d9b526cb20fbfULL},
    {"A48/maxmax/tau", 0x368e9e168e394667ULL},
    {"A48/maxmax/tau/ledger", 0x7acce01a82daf774ULL},
    {"A48/minmin/primary", 0x438f4dae01808d4cULL},
    {"A48/minmin/secondary", 0xdc18752354c54fe8ULL},
    {"A48/olb/primary", 0x8b116b6c95958ccbULL},
    {"A48/olb/secondary", 0x8fc9979fef0c4b13ULL},
    {"A48/random/primary", 0x25b9753d137da7e3ULL},
    {"A48/random/secondary", 0x25b9753d137da7e3ULL},
    {"A64r/maxmax/notau", 0x44d0e9cc0303d91eULL},
    {"A64r/maxmax/notau/ledger", 0xb4f98c6fcee38af1ULL},
    {"A64r/maxmax/tau", 0x3dedc7fba14ceb5fULL},
    {"A64r/maxmax/tau/ledger", 0x89529b1f0e32e6a8ULL},
    {"A64r/minmin/primary", 0xd01b2365fd71dfacULL},
    {"A64r/minmin/secondary", 0xe95d9aa1bd8049b8ULL},
    {"A64r/olb/primary", 0x69a40cf2eab757ecULL},
    {"A64r/olb/secondary", 0xd0c1731d027fa0ceULL},
    {"A64r/random/primary", 0x25ef61a1426e2d91ULL},
    {"A64r/random/secondary", 0x25ef61a1426e2d91ULL},
    {"B48/maxmax/notau", 0x20835b48a7ca2f0cULL},
    {"B48/maxmax/notau/ledger", 0xff799b29113ba4efULL},
    {"B48/maxmax/tau", 0x780a20eac036e448ULL},
    {"B48/maxmax/tau/ledger", 0x36189aefca5db2b4ULL},
    {"B48/minmin/primary", 0x438f4dae01808d4cULL},
    {"B48/minmin/secondary", 0xd726fbbb86b9e1bbULL},
    {"B48/olb/primary", 0x79c0e23b36b23511ULL},
    {"B48/olb/secondary", 0x46d60fcdf9b1ab49ULL},
    {"B48/random/primary", 0x544cd404222cc02aULL},
    {"B48/random/secondary", 0x544cd404222cc02aULL},
    {"B64/maxmax/notau", 0xaf1c0d8f588e50c5ULL},
    {"B64/maxmax/notau/ledger", 0x8784afba9042328fULL},
    {"B64/maxmax/tau", 0x6872b1147099c0f9ULL},
    {"B64/maxmax/tau/ledger", 0x36518c9b2d58d51ULL},
    {"B64/minmin/primary", 0x7e6d0db5b878ec89ULL},
    {"B64/minmin/secondary", 0xbbe40742c0de653cULL},
    {"B64/olb/primary", 0xee88563110bb3fadULL},
    {"B64/olb/secondary", 0xfab7386f2aa1deffULL},
    {"B64/random/primary", 0x9676884b692b4e0fULL},
    {"B64/random/secondary", 0x9676884b692b4e0fULL},
    {"C40/maxmax/notau", 0x42fe73857f5bf043ULL},
    {"C40/maxmax/notau/ledger", 0x6a11470d9c35f459ULL},
    {"C40/maxmax/tau", 0x8569d88c07452140ULL},
    {"C40/maxmax/tau/ledger", 0x531e7be8213245f9ULL},
    {"C40/minmin/primary", 0x57649d51dcb22b05ULL},
    {"C40/minmin/secondary", 0x82c45c2d209f2001ULL},
    {"C40/olb/primary", 0x55dc5ce0fea7cebeULL},
    {"C40/olb/secondary", 0xc53f15adf75ad2e7ULL},
    {"C40/random/primary", 0x22edfca81b3f034dULL},
    {"C40/random/secondary", 0x22edfca81b3f034dULL},
    {"C48/maxmax/notau", 0x43b679cee3f72c22ULL},
    {"C48/maxmax/notau/ledger", 0xaf2b74ff2c7e231eULL},
    {"C48/maxmax/tau", 0xf18efc9dacb3c65ULL},
    {"C48/maxmax/tau/ledger", 0x7f2b8245a227ba42ULL},
    {"C48/minmin/primary", 0xf16111dde6c43df9ULL},
    {"C48/minmin/secondary", 0x1375f9553f2c3541ULL},
    {"C48/olb/primary", 0xbcc5d2a4c71d3aa0ULL},
    {"C48/olb/secondary", 0x6a325d3209be7497ULL},
    {"C48/random/primary", 0x8a54d6c3940af5d7ULL},
    {"C48/random/secondary", 0x8a54d6c3940af5d7ULL},
};

TEST(StaticMapperPins, SchedulesAndLedgersMatchRecordedDigests) {
  std::map<std::string, std::uint64_t> fresh;
  for (const auto& [name, scenario] : pin_fixtures()) {
    for (const bool enforce_tau : {true, false}) {
      const std::string config = enforce_tau ? "tau" : "notau";
      for (const bool legacy_scan : {false, true}) {
        obs::TaskLedger ledger(scenario.num_tasks());
        core::MaxMaxParams params;
        params.weights = core::Weights::make(0.6, 0.3);
        params.enforce_tau = enforce_tau;
        params.legacy_scan = legacy_scan;
        const auto plain = core::run_maxmax(scenario, params);
        params.ledger = &ledger;
        const auto observed = core::run_maxmax(scenario, params);
        // Cached and legacy runs, with and without a ledger, share one pin.
        const std::string key = name + "/maxmax/" + config;
        const std::uint64_t digest = schedule_digest(scenario, observed);
        EXPECT_EQ(schedule_digest(scenario, plain), digest) << key;
        if (legacy_scan) {
          EXPECT_EQ(fresh.at(key), digest) << key << " legacy_scan";
          EXPECT_EQ(fresh.at(key + "/ledger"), ledger_digest(ledger)) << key;
        } else {
          fresh[key] = digest;
          fresh[key + "/ledger"] = ledger_digest(ledger);
        }
      }
    }
    for (const bool prefer_primary : {true, false}) {
      const std::string config = prefer_primary ? "primary" : "secondary";
      core::BaselineParams base;
      base.prefer_primary = prefer_primary;
      fresh[name + "/minmin/" + config] =
          schedule_digest(scenario, core::run_minmin(scenario, base));
      fresh[name + "/olb/" + config] =
          schedule_digest(scenario, core::run_olb(scenario, base));
      // Random draws its version among the admissible ones, so it reads
      // prefer_primary only through admission: both pins may coincide.
      core::RandomMapperParams random;
      random.base = base;
      random.seed = 3;
      fresh[name + "/random/" + config] =
          schedule_digest(scenario, core::run_random(scenario, random));
    }
  }
  for (const auto& [key, digest] : fresh) {
    const auto it = kPins.find(key);
    if (it == kPins.end()) {
      ADD_FAILURE() << "no pin: {\"" << key << "\", 0x" << std::hex << digest << "ULL},";
      continue;
    }
    EXPECT_EQ(it->second, digest) << key << ": fresh 0x" << std::hex << digest;
  }
  EXPECT_EQ(kPins.size(), fresh.size());
}

}  // namespace
}  // namespace ahg
