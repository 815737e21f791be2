#pragma once
// Scenario serialization: a small line-oriented text format so scenarios can
// be exported, archived, and replayed across tools (or fed from external
// workload generators instead of the built-in ones).
//
// Format (all sections required, '#' starts a comment line):
//
//   adhoc-grid-scenario v1
//   machines <count>
//   machine <class:fast|slow> <battery> <compute_power> <transmit_power> <bw_bps>
//   tasks <count>
//   tau <cycles>
//   versions <secondary_time_factor> <secondary_data_factor>
//   etc <task> <machine> <seconds>            (one line per entry)
//   edge <parent> <child> <bits>              (one line per DAG edge)
//
// Optional lines, after the versions line:
//
//   release <task> <cycles>                   (subtasks released after 0)
//   outage <machine> <start> <duration>       (one line per link outage)
//   window <machine> <join> <depart|never>    (machines that join late or
//                                              depart; at most one each)
//
// Numbers are written with enough precision to round-trip doubles exactly.

#include <iosfwd>
#include <string>

#include "workload/scenario.hpp"

namespace ahg::workload {

/// Serialize a scenario (grid, DAG, ETC, data sizes, versions, tau, releases,
/// link outages and machine presence windows).
void write_scenario(std::ostream& os, const Scenario& scenario);

/// Parse a scenario; throws PreconditionError with a line-numbered message
/// on malformed input. The result passes Scenario::validate().
Scenario read_scenario(std::istream& is);

/// Convenience file wrappers (throw on I/O failure).
void save_scenario(const std::string& path, const Scenario& scenario);
Scenario load_scenario(const std::string& path);

}  // namespace ahg::workload
