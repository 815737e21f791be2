#include "workload/scenario_io.hpp"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "support/contract.hpp"

namespace ahg::workload {

namespace {

constexpr const char* kHeader = "adhoc-grid-scenario v1";

[[noreturn]] void parse_fail(std::size_t line, const std::string& message) {
  throw PreconditionError("scenario parse error at line " + std::to_string(line) +
                          ": " + message);
}

/// One whitespace-separated field. Counts and indices (std::size_t) take
/// digits only: no sign, so "-4" cannot wrap to 2^64 - 4, and no overflow.
bool read_field(std::istream& is, std::size_t& out) {
  std::string token;
  if (!(is >> token)) return false;
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

template <typename T>
bool read_field(std::istream& is, T& out) {
  return static_cast<bool>(is >> out);
}

/// A window's departure: a cycle count or "never" (kNoDeparture).
struct Departure {
  Cycles cycles = Scenario::kNoDeparture;
};

bool read_field(std::istream& is, Departure& out) {
  std::string token;
  if (!(is >> token)) return false;
  if (token == "never") {
    out.cycles = Scenario::kNoDeparture;
    return true;
  }
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, out.cycles);
  return ec == std::errc{} && ptr == last;
}

/// Read exactly `fields` from the rest of a line: a missing, malformed or
/// extra field ("tasks 4 5", "etc 0 0 7.38xyz") fails the line as a whole.
template <typename... Fields>
void read_fields(std::istream& is, std::size_t line_no, const char* usage,
                 Fields&... fields) {
  std::string rest;
  if (!(read_field(is, fields) && ...) || is >> rest) {
    parse_fail(line_no, std::string("expected '") + usage + "'");
  }
}

/// A body line, parsed and range-checked but not yet applied: nothing is
/// sized from the tasks/machines header until the etc lines that must back
/// it have been counted.
struct EtcLine {
  std::size_t task, machine;
  double seconds;
  std::size_t line_no;
};
struct EdgeLine {
  std::size_t parent, child;
  double bits;
  std::size_t line_no;
};

}  // namespace

void write_scenario(std::ostream& os, const Scenario& scenario) {
  scenario.validate();
  os << kHeader << '\n';
  os << std::setprecision(17);

  os << "machines " << scenario.num_machines() << '\n';
  for (const auto& m : scenario.grid.machines()) {
    os << "machine " << sim::to_string(m.cls) << ' ' << m.battery_capacity << ' '
       << m.compute_power << ' ' << m.transmit_power << ' ' << m.bandwidth_bps
       << '\n';
  }

  os << "tasks " << scenario.num_tasks() << '\n';
  os << "tau " << scenario.tau << '\n';
  os << "versions " << scenario.versions.secondary_time_factor << ' '
     << scenario.versions.secondary_data_factor << '\n';

  for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
    for (std::size_t j = 0; j < scenario.num_machines(); ++j) {
      os << "etc " << i << ' ' << j << ' '
         << scenario.etc.seconds(static_cast<TaskId>(i), static_cast<MachineId>(j))
         << '\n';
    }
  }
  for (std::size_t i = 0; i < scenario.num_tasks(); ++i) {
    const auto parent = static_cast<TaskId>(i);
    for (const TaskId child : scenario.dag.children(parent)) {
      os << "edge " << parent << ' ' << child << ' '
         << scenario.data.bits(parent, child) << '\n';
    }
  }
  if (!scenario.releases.empty()) {
    for (std::size_t i = 0; i < scenario.releases.size(); ++i) {
      if (scenario.releases[i] > 0) {
        os << "release " << i << ' ' << scenario.releases[i] << '\n';
      }
    }
  }
  for (const auto& outage : scenario.link_outages) {
    os << "outage " << outage.machine << ' ' << outage.start << ' '
       << outage.duration << '\n';
  }
  // Presence windows: one line per machine that joins late or departs; an
  // all-default set reads back as "no windows", which behaves the same.
  for (std::size_t j = 0; j < scenario.machine_windows.size(); ++j) {
    const Scenario::MachineWindow& w = scenario.machine_windows[j];
    if (w.join == 0 && w.depart == Scenario::kNoDeparture) continue;
    os << "window " << j << ' ' << w.join << ' ';
    if (w.depart == Scenario::kNoDeparture) {
      os << "never";
    } else {
      os << w.depart;
    }
    os << '\n';
  }
}

Scenario read_scenario(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;

  auto next_line = [&](bool required) -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      // Strip comments and skip blank lines.
      if (const auto hash = line.find('#'); hash != std::string::npos) {
        line.erase(hash);
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      return true;
    }
    if (required) parse_fail(line_no, "unexpected end of file");
    return false;
  };

  next_line(true);
  if (line != kHeader) parse_fail(line_no, "missing header '" + std::string(kHeader) + "'");

  // The next required line: `keyword` followed by exactly `fields`.
  const auto read_line = [&](const char* keyword, const char* usage, auto&... fields) {
    next_line(true);
    std::istringstream ss(line);
    std::string kw;
    read_fields(ss, line_no, usage, kw, fields...);
    if (kw != keyword) parse_fail(line_no, std::string("expected '") + usage + "'");
  };

  // --- machines ---------------------------------------------------------------
  std::size_t num_machines = 0;
  read_line("machines", "machines <count>", num_machines);
  if (num_machines == 0) parse_fail(line_no, "machine count must be positive");
  std::vector<sim::MachineSpec> machines;
  for (std::size_t j = 0; j < num_machines; ++j) {
    std::string cls;
    sim::MachineSpec spec;
    read_line("machine", "machine <class> <B> <E> <C> <BW>", cls, spec.battery_capacity,
              spec.compute_power, spec.transmit_power, spec.bandwidth_bps);
    if (cls == "fast") spec.cls = sim::MachineClass::Fast;
    else if (cls == "slow") spec.cls = sim::MachineClass::Slow;
    else parse_fail(line_no, "machine class must be fast|slow, got '" + cls + "'");
    if (spec.battery_capacity < 0 || spec.compute_power < 0 || spec.transmit_power < 0 ||
        spec.bandwidth_bps <= 0) {
      parse_fail(line_no, "machine parameters out of range");
    }
    machines.push_back(spec);
  }

  // --- sizes / constraints -----------------------------------------------------
  std::size_t num_tasks = 0;
  read_line("tasks", "tasks <count>", num_tasks);
  const std::size_t tasks_line_no = line_no;
  if (num_tasks == 0) parse_fail(line_no, "task count must be positive");
  Cycles tau = 0;
  read_line("tau", "tau <cycles>", tau);
  if (tau <= 0) parse_fail(line_no, "tau must be positive");
  VersionModel versions;
  read_line("versions", "versions <time_factor> <data_factor>",
            versions.secondary_time_factor, versions.secondary_data_factor);
  try {
    versions.validate();
  } catch (const PreconditionError& error) {
    parse_fail(line_no, error.what());
  }

  // --- etc entries, edges, releases, outages, windows ---------------------------
  std::vector<EtcLine> etc_lines;
  std::vector<EdgeLine> edge_lines;
  std::vector<std::pair<std::size_t, Cycles>> release_lines;
  std::vector<Scenario::LinkOutage> outages;
  std::vector<Scenario::MachineWindow> windows;
  std::vector<char> has_window;

  while (next_line(false)) {
    std::istringstream ss(line);
    std::string kw;
    ss >> kw;
    if (kw == "etc") {
      EtcLine e{0, 0, 0.0, line_no};
      read_fields(ss, line_no, "etc <task> <machine> <seconds>", e.task, e.machine,
                  e.seconds);
      if (e.task >= num_tasks || e.machine >= num_machines) {
        parse_fail(line_no, "etc indices out of range");
      }
      if (e.seconds <= 0.0) parse_fail(line_no, "etc seconds must be positive");
      etc_lines.push_back(e);
    } else if (kw == "edge") {
      EdgeLine e{0, 0, 0.0, line_no};
      read_fields(ss, line_no, "edge <parent> <child> <bits>", e.parent, e.child, e.bits);
      if (e.parent >= num_tasks || e.child >= num_tasks) {
        parse_fail(line_no, "edge indices out of range");
      }
      if (e.bits < 0.0) parse_fail(line_no, "edge bits must be non-negative");
      edge_lines.push_back(e);
    } else if (kw == "release") {
      std::size_t task = 0;
      Cycles when = 0;
      read_fields(ss, line_no, "release <task> <cycles>", task, when);
      if (task >= num_tasks || when < 0) parse_fail(line_no, "release out of range");
      release_lines.emplace_back(task, when);
    } else if (kw == "outage") {
      Scenario::LinkOutage outage;
      std::size_t machine = 0;
      read_fields(ss, line_no, "outage <machine> <start> <duration>", machine,
                  outage.start, outage.duration);
      if (machine >= num_machines || outage.start < 0 || outage.duration <= 0) {
        parse_fail(line_no, "outage out of range");
      }
      outage.machine = static_cast<MachineId>(machine);
      outages.push_back(outage);
    } else if (kw == "window") {
      std::size_t machine = 0;
      Cycles join = 0;
      Departure depart;
      read_fields(ss, line_no, "window <machine> <join> <depart|never>", machine,
                  join, depart);
      if (machine >= num_machines || join < 0 || depart.cycles <= join) {
        parse_fail(line_no, "window out of range");
      }
      if (windows.empty()) {
        windows.assign(num_machines, Scenario::MachineWindow{});
        has_window.assign(num_machines, 0);
      }
      if (has_window[machine] != 0) parse_fail(line_no, "duplicate window");
      has_window[machine] = 1;
      windows[machine] = {join, depart.cycles};
    } else {
      parse_fail(line_no, "unknown keyword '" + kw + "'");
    }
  }

  // Every (task, machine) cell needs its own etc line, so the header is
  // backed only when there are at least tasks x machines of them (compared
  // by division: the product of two header values may overflow).
  if (num_tasks > etc_lines.size() / num_machines) {
    parse_fail(tasks_line_no, "tasks x machines exceeds the " +
                                  std::to_string(etc_lines.size()) + " etc line(s)");
  }
  // At least tasks x machines in-range lines: any surplus is a duplicate (a
  // cell already set, as entries are positive), and with none every cell is
  // covered.
  EtcMatrix etc(num_tasks, num_machines);
  for (const EtcLine& e : etc_lines) {
    const auto task = static_cast<TaskId>(e.task);
    const auto machine = static_cast<MachineId>(e.machine);
    if (etc.seconds(task, machine) > 0.0) parse_fail(e.line_no, "duplicate etc entry");
    etc.set_seconds(task, machine, e.seconds);
  }
  Dag dag(num_tasks);
  DataSizes data;
  for (const EdgeLine& e : edge_lines) {
    const auto parent = static_cast<TaskId>(e.parent);
    const auto child = static_cast<TaskId>(e.child);
    if (parent == child || dag.has_edge(parent, child)) {
      parse_fail(e.line_no, "invalid or duplicate edge");
    }
    dag.add_edge(parent, child);
    data.set_bits(parent, child, e.bits);
  }
  if (!dag.is_acyclic()) parse_fail(line_no, "edge set contains a cycle");
  std::vector<Cycles> releases;
  if (!release_lines.empty()) releases.assign(num_tasks, 0);
  for (const auto& [task, when] : release_lines) releases[task] = when;

  Scenario scenario{sim::GridConfig(std::move(machines)), std::move(dag),
                    std::move(etc), std::move(data), versions, tau,
                    std::move(releases), std::move(outages), std::move(windows)};
  scenario.validate();
  return scenario;
}

void save_scenario(const std::string& path, const Scenario& scenario) {
  std::ofstream file(path);
  AHG_EXPECTS_MSG(file.good(), "cannot open '" + path + "' for writing");
  write_scenario(file, scenario);
  AHG_ENSURES_MSG(file.good(), "write to '" + path + "' failed");
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  AHG_EXPECTS_MSG(file.good(), "cannot open '" + path + "' for reading");
  return read_scenario(file);
}

}  // namespace ahg::workload
