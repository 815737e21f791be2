#pragma once
// Cross-tick pool reuse for the clock-driven SLRH driver (DESIGN.md §4h).
//
// When a (machine, timestep) scope ends without committing anything, the
// driver records a skip verdict: the smallest proven lower bound on a
// beyond-horizon arrival in the scope (a candidate's arrival_lower_bound when
// that alone rejected it, its exact plan_placement arrival otherwise),
// tagged with the ReadyFrontier revision. The revision is the only
// invalidation signal: every commit bumps it, and so does every ready-list
// insertion. While it stands, no placement has been committed anywhere — so
// the ready set, every energy ledger and every booking are unchanged — and
// plan_placement arrivals are monotone non-decreasing in the probe clock, so
// every candidate's arrival stays at or above its recorded bound. A later
// tick with clock' + H < min_arrival provably maps nothing, and the whole
// scope collapses to this O(1) test. Skipping a scope that would commit
// nothing leaves the schedule bit-identical to the reference driver's
// (tests/oracles), which builds a pool in every scope; only pool-build counts
// (and their telemetry) differ.
//
// A SweepContext lives for exactly one drive_slrh window, so churn segment
// boundaries (departures, joins, orphan recovery) drop all cached state
// wholesale; nothing survives a schedule rebuild.

#include <cstdint>
#include <limits>
#include <vector>

#include "support/units.hpp"

namespace ahg::core {

/// Per-drive-window reuse state. Pure bookkeeping: nothing in here reads the
/// schedule or scenario; the driver records scope outcomes and asks one O(1)
/// question (can_skip).
class SweepContext {
 public:
  /// min-arrival sentinel for an empty pool: no candidate exists, so the
  /// skip test passes at every clock while the revision stands.
  static constexpr Cycles kNoArrival = std::numeric_limits<Cycles>::max();

  explicit SweepContext(std::size_t num_machines) : verdicts_(num_machines) {}

  /// True when the recorded verdict proves machine `machine` cannot commit
  /// anything at `clock`: the frontier revision unchanged since the verdict
  /// was recorded and clock + horizon below the proven minimum arrival.
  bool can_skip(MachineId machine, Cycles clock, Cycles horizon,
                std::uint64_t frontier_revision) const noexcept {
    const Verdict& v = verdicts_[static_cast<std::size_t>(machine)];
    if (!v.valid || v.frontier_revision != frontier_revision) return false;
    return v.min_arrival == kNoArrival || clock + horizon < v.min_arrival;
  }

  /// Record a no-commit scope outcome. `min_arrival` is the smallest proven
  /// lower bound on a beyond-horizon arrival across the scope's walks
  /// (kNoArrival for an empty pool). Only call for a scope that committed
  /// nothing: its last pool was then built at the current revision, while a
  /// pool predating a mid-scope commit may be missing commit-enabled
  /// candidates, and a verdict taken from it would skip them forever. Stale
  /// verdicts need no explicit invalidation: the revision compare in
  /// can_skip retires them.
  void record_verdict(MachineId machine, Cycles min_arrival,
                      std::uint64_t frontier_revision) {
    Verdict& v = verdicts_[static_cast<std::size_t>(machine)];
    v.min_arrival = min_arrival;
    v.frontier_revision = frontier_revision;
    v.valid = true;
  }

 private:
  struct Verdict {
    Cycles min_arrival = 0;
    std::uint64_t frontier_revision = 0;
    bool valid = false;
  };

  std::vector<Verdict> verdicts_;
};

}  // namespace ahg::core
