#include "core/slrh.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "core/feasibility.hpp"
#include "core/frontier.hpp"
#include "core/placement.hpp"
#include "core/scenario_cache.hpp"
#include "core/scoring.hpp"
#include "core/sweep.hpp"
#include "support/flight_recorder.hpp"
#include "support/profile.hpp"
#include "support/runtime_profiler.hpp"
#include "support/stopwatch.hpp"
#include "support/task_ledger.hpp"

namespace ahg::core {

std::string to_string(SlrhVariant variant) {
  switch (variant) {
    case SlrhVariant::V1: return "SLRH-1";
    case SlrhVariant::V2: return "SLRH-2";
    case SlrhVariant::V3: return "SLRH-3";
  }
  return "SLRH-?";
}

namespace {

/// Phase-histogram handles for one drive_slrh window, all nullable.
/// Resolved once per call so the inner loop never touches the registry's
/// name map. With params.sink == nullptr every member stays null and each
/// instrumentation point reduces to a single predictable branch.
struct SlrhTelemetry {
  obs::Sink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::Histogram* pool_build = nullptr;      ///< build_pool wall time
  obs::Histogram* scoring = nullptr;         ///< scoring share of a pool build
  obs::Histogram* placement = nullptr;       ///< map_first_startable wall time
  obs::Histogram* earliest_start = nullptr;  ///< plan_placement share of placement

  bool tracing(obs::EventKind kind) const noexcept {
    return sink != nullptr && sink->wants(kind);
  }

  static SlrhTelemetry resolve(obs::Sink* sink) {
    SlrhTelemetry t;
    t.sink = sink;
    t.metrics = sink != nullptr ? sink->metrics() : nullptr;
    t.pool_build = obs::phase_histogram(t.metrics, "slrh.pool_build_seconds");
    t.scoring = obs::phase_histogram(t.metrics, "slrh.scoring_seconds");
    t.placement = obs::phase_histogram(t.metrics, "slrh.placement_seconds");
    t.earliest_start = obs::phase_histogram(t.metrics, "slrh.earliest_start_seconds");
    return t;
  }
};

/// The work of one drive_slrh window, counted once. The slrh.* counters and
/// MappingResult receive the totals when the window ends; a flight-recorder
/// frame takes the difference across its tick.
struct SweepTally {
  std::uint64_t ticks = 0;
  std::uint64_t scopes_built = 0;    ///< (machine, tick) scopes that built a pool
  std::uint64_t scopes_skipped = 0;  ///< scopes a cross-tick verdict skipped
  std::uint64_t pools = 0;           ///< pool builds (V3: several per scope)
  std::uint64_t maps = 0;            ///< placements committed
  std::uint64_t probes = 0;          ///< plan_placement calls
  std::uint64_t pruned = 0;          ///< candidates rejected by the bound

  void publish(obs::MetricsRegistry& metrics) const {
    metrics.counter("slrh.timesteps").add(ticks);
    metrics.counter("slrh.pool_reuse_misses").add(scopes_built);
    metrics.counter("slrh.pool_reuse_hits").add(scopes_skipped);
    metrics.counter("slrh.pools_built").add(pools);
    metrics.counter("slrh.map_decisions").add(maps);
    metrics.counter("slrh.placement_probes").add(probes);
    metrics.counter("slrh.probes_pruned").add(pruned);
  }
};

/// Accumulates sub-phase time across many small sections within one scope
/// (per-candidate scoring, per-candidate placement planning) and reports the
/// total as a single histogram observation. Null histogram = no clock reads.
class SubPhaseAccumulator {
 public:
  explicit SubPhaseAccumulator(obs::Histogram* histogram) noexcept
      : histogram_(histogram) {}

  ~SubPhaseAccumulator() {
    if (histogram_ != nullptr && seconds_ > 0.0) histogram_->observe(seconds_);
  }

  template <typename F>
  auto time(F&& fn) {
    if (histogram_ == nullptr) return fn();
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn();
    seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
  }

 private:
  obs::Histogram* histogram_;
  double seconds_ = 0.0;
};

/// Order the candidate pool by score descending (ties: smaller task id, for
/// determinism). Scores are distinct per task, so the result is independent
/// of the insertion order — the frontier-built pool sorts exactly like the
/// paper's full scan.
void sort_pool(std::vector<SlrhPoolCandidate>& pool) {
  std::sort(pool.begin(), pool.end(),
            [](const SlrhPoolCandidate& a, const SlrhPoolCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.task < b.task;
            });
}

/// Per-(machine, clock) memo of candidates proven beyond the horizon, either
/// by arrival_lower_bound or by an exact plan. Within one such scope a commit
/// can only ADD channel bookings and never reassigns a candidate's (already
/// mapped) parents, so plan_placement's arrival is monotonically
/// non-decreasing across the variant-2/3 re-walks and the bound does not
/// move at all — a candidate once beyond the horizon at this clock stays
/// beyond it, and re-checking it is pure waste. Both are also
/// version-independent (incoming edge volumes depend on the PARENTS'
/// committed versions), so one bit per task suffices. Generation stamping
/// makes scope resets O(1).
class BeyondHorizonMemo {
 public:
  explicit BeyondHorizonMemo(std::size_t num_tasks) : stamp_(num_tasks, 0) {}

  void begin_scope() noexcept { ++generation_; }

  bool contains(TaskId task) const noexcept {
    return stamp_[static_cast<std::size_t>(task)] == generation_;
  }

  void insert(TaskId task) noexcept {
    stamp_[static_cast<std::size_t>(task)] = generation_;
  }

 private:
  std::vector<std::uint64_t> stamp_;
  std::uint64_t generation_ = 1;
};

/// What a traced map_first_startable call saw: every candidate it examined
/// (with the rejection reason for the passed-over ones) and, when a commit
/// happened, the committed placement with its objective-term breakdown.
struct MapTrace {
  std::vector<obs::CandidateTrace> candidates;
  ObjectiveTerms terms;
  VersionKind version = VersionKind::Secondary;
  Cycles start = 0;
  Cycles finish = 0;
};

/// Walk the ordered pool and commit the first candidate whose exact
/// earliest start (communication included) falls within the horizon.
/// Returns the index into `pool` of the mapped candidate, or npos.
/// Admission energies come from the precomputed tables; `memo` skips
/// re-checking candidates already proven beyond-horizon in this
/// (machine, clock) scope. A candidate whose arrival_lower_bound already
/// lies beyond the horizon is rejected without a plan: the bound never
/// exceeds the planned arrival, so the plan would reject it too.
/// `committed` receives the committed plan, and `tally` counts the plans
/// made and the candidates pruned. `min_beyond` accumulates (running min)
/// the smallest proven lower bound on the arrival of every candidate this
/// walk showed beyond the horizon — the bound for a pruned candidate, the
/// exact arrival for a planned one. It is the raw material for the
/// cross-tick skip verdicts (core/sweep.hpp). Memo-skipped candidates were
/// accumulated by the earlier walk that inserted them; arrivals only move
/// later within a scope, so those remain valid lower bounds. `trace`
/// non-null records the decision (telemetry path only).
std::size_t map_first_startable(const workload::Scenario& scenario,
                                sim::Schedule& schedule, const SlrhParams& params,
                                const ObjectiveTotals& totals,
                                const std::vector<SlrhPoolCandidate>& pool,
                                MachineId machine, Cycles clock,
                                const SlrhTelemetry& telemetry,
                                const ScenarioCache& cache, BeyondHorizonMemo& memo,
                                std::size_t skip_before, PlacementPlan& committed,
                                SweepTally& tally, Cycles& min_beyond,
                                MapTrace* trace) {
  obs::ProfileScope placement_scope(telemetry.placement);
  SubPhaseAccumulator earliest_time(telemetry.earliest_start);
  const auto fits = [&](TaskId task, VersionKind version) {
    return version_fits_energy(cache, schedule, task, machine, version);
  };
  const Cycles limit = clock + params.horizon;
  const auto reject_beyond = [&](const SlrhPoolCandidate& cand, Cycles arrival) {
    min_beyond = std::min(min_beyond, arrival);
    memo.insert(cand.task);
    if (trace != nullptr) {
      trace->candidates.push_back(
          {cand.task, cand.version, cand.score, "beyond_horizon"});
    }
  };
  for (std::size_t k = skip_before; k < pool.size(); ++k) {
    const SlrhPoolCandidate& cand = pool[k];
    if (schedule.is_assigned(cand.task)) {
      if (trace != nullptr) {
        trace->candidates.push_back(
            {cand.task, cand.version, cand.score, "already_assigned"});
      }
      continue;
    }
    // Re-check energy: earlier commits in this timestep (variants 2/3) may
    // have consumed what the pool admission saw.
    VersionKind version = cand.version;
    if (!fits(cand.task, version)) {
      if (version == VersionKind::Primary &&
          fits(cand.task, VersionKind::Secondary)) {
        version = VersionKind::Secondary;
      } else {
        if (trace != nullptr) {
          trace->candidates.push_back(
              {cand.task, cand.version, cand.score, "energy_exhausted"});
        }
        continue;
      }
    }
    if (memo.contains(cand.task)) {
      // Proven beyond-horizon earlier in this (machine, clock) scope; the
      // arrival can only have moved later since. Same decision, no re-plan.
      if (trace != nullptr) {
        trace->candidates.push_back(
            {cand.task, cand.version, cand.score, "beyond_horizon"});
      }
      continue;
    }
    // The horizon test uses the earliest possible start "given precedence
    // and communication requirements" (paper §IV) — i.e. data readiness on
    // this machine, NOT the machine's queue. For variant 1 the two coincide
    // (the machine is idle at the clock); for variants 2/3 this is what lets
    // them stack a queue of data-ready subtasks onto one machine within a
    // single timestep — and is exactly why SLRH-2 overloads machines and
    // rarely meets the constraints (paper §VII). The contention-free bound
    // screens first; only a candidate it cannot reject pays for a plan.
    const Cycles bound =
        arrival_lower_bound(scenario, schedule, cand.task, machine, clock);
    if (std::max(clock, bound) > limit) {
      ++tally.pruned;
      reject_beyond(cand, bound);
      continue;
    }
    ++tally.probes;
    PlacementPlan plan = earliest_time.time([&] {
      return plan_placement(scenario, schedule, cand.task, machine, version, clock);
    });
    if (std::max(clock, plan.arrival) <= limit) {
      if (trace != nullptr) {
        // Capture the decision against the PRE-commit schedule state: the
        // breakdown of the hypothetical objective this choice maximised.
        trace->terms = score_candidate_terms(scenario, schedule, params.weights,
                                             totals, cand.task, machine, version,
                                             clock, params.aet_sign);
        trace->version = version;
        trace->start = plan.start;
        trace->finish = plan.finish();
        trace->candidates.push_back({cand.task, version, cand.score, ""});
      }
      commit_placement(scenario, schedule, plan);
      committed = std::move(plan);
      return k;
    }
    reject_beyond(cand, plan.arrival);
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

std::vector<SlrhPoolCandidate> build_slrh_pool_batched(
    const workload::Scenario& scenario, const ScenarioCache& cache,
    const ReadyFrontier& frontier, const sim::Schedule& schedule,
    const SlrhParams& params, const ObjectiveTotals& totals, MachineId machine,
    Cycles clock, SlrhPoolRejects* rejects, obs::Histogram* scoring_histogram,
    CandidateBatch* scratch) {
  SubPhaseAccumulator scoring_time(scoring_histogram);
  if (rejects != nullptr) {
    rejects->unreleased = frontier.num_unreleased();
    rejects->assigned = frontier.num_assigned_released();
    rejects->parents = frontier.num_parents_blocked();
  }
  CandidateBatch local;
  CandidateBatch& batch = scratch != nullptr ? *scratch : local;
  // The scoring histogram covers gather + kernel (the admission compare
  // folded into the gather is noise). Telemetry only.
  std::vector<SlrhPoolCandidate> pool = scoring_time.time([&] {
    const std::size_t rejected_energy = build_candidate_batch(
        cache, scenario, schedule, frontier.ready(), machine, clock,
        params.secondary_only, batch);
    if (rejects != nullptr) rejects->energy = rejected_energy;
    score_batch(batch, params.weights, totals, schedule.t100(), schedule.tec(),
                schedule.aet(), params.aet_sign);
    std::vector<SlrhPoolCandidate> out;
    out.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back({batch.task[i], batch.version[i], batch.score[i]});
    }
    return out;
  });
  sort_pool(pool);
  return pool;
}

void drive_slrh(const workload::Scenario& scenario, const SlrhParams& params,
                sim::Schedule& schedule, Cycles start_clock, Cycles end_clock,
                MappingResult& result) {
  params.validate();
  AHG_EXPECTS_MSG(start_clock >= 0, "start clock must be non-negative");
  const ObjectiveTotals totals = objective_totals(scenario);
  constexpr auto npos = static_cast<std::size_t>(-1);
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());

  const SlrhTelemetry telemetry = SlrhTelemetry::resolve(params.sink);
  const bool trace_pools = telemetry.tracing(obs::EventKind::PoolBuilt);
  const bool trace_maps = telemetry.tracing(obs::EventKind::MapDecision);
  const bool trace_stalls = telemetry.tracing(obs::EventKind::Stall);
  obs::FlightRecorder* recorder = params.recorder;
  obs::TaskLedger* ledger = params.ledger;
  const std::string heuristic_name = params.sink != nullptr || recorder != nullptr
                                         ? to_string(params.variant)
                                         : std::string();
  SweepTally tally;

  // Flight-recorder per-timestep state (touched only with a recorder
  // attached; the null-recorder path never reads a clock). The overhead
  // budget (≤3% with a recorder ATTACHED, see bench_micro_kernels) shapes
  // this path too: step_t0 is set lazily by the tick's first pool build so
  // an idle tick costs no clock read, `scratch` is reused across ticks so
  // frame assembly is allocation-free after the first, and idle ticks are
  // decimated per Options::idle_stride (active ticks are always sampled).
  // A frame's work counts are the tally minus `tick_start`.
  SweepTally tick_start;
  double step_t0 = 0.0;
  bool step_timed = false;
  double step_pool_seconds = 0.0;
  std::uint64_t step_last_pool = 0;
  std::uint64_t idle_ticks_unsampled = 0;
  std::uint64_t span_countdown = 1;  // countdown, not modulo: no div per build
  const std::uint64_t idle_stride =
      recorder != nullptr
          ? std::max<std::uint64_t>(std::uint64_t{1}, recorder->options().idle_stride)
          : std::uint64_t{1};
  const std::uint64_t span_stride =
      recorder != nullptr
          ? std::max<std::uint64_t>(std::uint64_t{1}, recorder->options().span_stride)
          : std::uint64_t{1};
  obs::Frame scratch;

  // Engine state (see DESIGN.md "Incremental frontier"): precomputed
  // pure-scenario tables, the incremental ready frontier, the beyond-horizon
  // memo, and the SoA scratch for the batched score kernel — reused across
  // every pool build of the window (allocation-free steady state).
  std::optional<ScenarioCache> local_cache;
  const ScenarioCache* cache = params.cache;
  if (cache == nullptr) {
    local_cache.emplace(scenario);
    cache = &*local_cache;
  }
  ReadyFrontier frontier(scenario, schedule);
  if (ledger != nullptr) frontier.set_ledger(ledger);
  BeyondHorizonMemo memo(scenario.num_tasks());
  CandidateBatch batch_scratch;

  // Cross-tick skip verdicts (core/sweep.hpp). A fresh context per drive
  // window means churn segment boundaries invalidate everything cached.
  SweepContext sweep(scenario.num_machines());

  const auto make_pool = [&](MachineId machine, Cycles clock) {
    SlrhPoolRejects rejects;
    std::vector<SlrhPoolCandidate> pool;
    const bool time_this_build = recorder != nullptr && --span_countdown == 0;
    const double span_t0 = time_this_build ? recorder->now_seconds() : 0.0;
    {
      obs::ProfileScope scope(telemetry.pool_build);
      pool = build_slrh_pool_batched(scenario, *cache, frontier, schedule, params,
                                     totals, machine, clock,
                                     trace_pools ? &rejects : nullptr,
                                     telemetry.scoring, &batch_scratch);
    }
    if (recorder != nullptr) {
      if (time_this_build) {
        span_countdown = span_stride;
        const double elapsed = recorder->now_seconds() - span_t0;
        recorder->add_span("pool_build", span_t0, elapsed, clock, machine);
        if (!step_timed) {
          step_t0 = span_t0;
          step_timed = true;
        }
        step_pool_seconds += elapsed;
      }
      step_last_pool = pool.size();
    }
    if (ledger != nullptr) {
      // First sighting per task is a relaxed load + early-out, so sweeping
      // the whole pool every build stays inside the ≤1.05x overhead budget.
      for (const SlrhPoolCandidate& cand : pool) {
        ledger->on_pooled(cand.task, clock, machine);
      }
    }
    ++tally.pools;
    if (trace_pools && (!pool.empty() || rejects.any())) {
      obs::Event event;
      event.kind = obs::EventKind::PoolBuilt;
      event.heuristic = heuristic_name;
      event.clock = clock;
      event.machine = machine;
      event.pool_size = pool.size();
      event.rejected_unreleased = rejects.unreleased;
      event.rejected_assigned = rejects.assigned;
      event.rejected_parents = rejects.parents;
      event.rejected_energy = rejects.energy;
      params.sink->emit(event);
    }
    return pool;
  };

  // One map attempt; emits a map event on commit, a stall event otherwise.
  // Every commit is mirrored into the frontier immediately.
  const auto try_map = [&](const std::vector<SlrhPoolCandidate>& pool,
                           MachineId machine, Cycles clock,
                           std::size_t skip_before, Cycles& min_beyond) {
    const bool tracing = trace_maps || trace_stalls;
    MapTrace trace;
    PlacementPlan committed;
    const std::size_t mapped = map_first_startable(
        scenario, schedule, params, totals, pool, machine, clock, telemetry,
        *cache, memo, skip_before, committed, tally, min_beyond,
        tracing ? &trace : nullptr);
    if (mapped != npos) {
      frontier.on_commit(pool[mapped].task);
      ++tally.maps;
      if (ledger != nullptr) record_placement(*ledger, schedule, committed, clock);
    }
    if (tracing && (mapped != npos ? trace_maps : trace_stalls) &&
        !(mapped == npos && pool.size() == skip_before)) {
      obs::Event event;
      event.heuristic = heuristic_name;
      event.clock = clock;
      event.machine = machine;
      event.pool_size = pool.size();
      event.candidates = std::move(trace.candidates);
      if (mapped != npos) {
        event.kind = obs::EventKind::MapDecision;
        event.task = pool[mapped].task;
        event.version = trace.version;
        event.score = trace.terms.value;
        event.terms = {trace.terms.t100, trace.terms.tec, trace.terms.aet,
                       trace.terms.value};
        event.start = trace.start;
        event.finish = trace.finish;
      } else {
        event.kind = obs::EventKind::Stall;
        event.note = "no pool candidate startable within horizon";
      }
      params.sink->emit(event);
    }
    return mapped;
  };

  // End-of-timestep frame assembly (recorder path only). Samples the
  // schedule AFTER the machine sweep so the frame reflects every decision
  // the tick made; nothing here feeds back into the loop.
  const auto record_frame = [&](Cycles clock) {
    obs::Frame& frame = scratch;
    frame.heuristic = heuristic_name;
    frame.clock = clock;
    const double now = recorder->now_seconds();
    frame.wall_seconds = now;
    frame.timestep_seconds = step_timed ? now - step_t0 : 0.0;
    frame.pool_build_seconds = step_pool_seconds;
    fill_frame_state(frame, schedule, params.weights, totals, params.aet_sign);
    frame.pools_built = tally.pools - tick_start.pools;
    frame.maps = tally.maps - tick_start.maps;
    frame.last_pool_size = step_last_pool;
    frame.pools_reused = tally.scopes_skipped - tick_start.scopes_skipped;
    frame.probes = tally.probes - tick_start.probes;
    frame.probes_pruned = tally.pruned - tick_start.pruned;
    frame.frontier_ready = frontier.ready().size();
    frame.frontier_unreleased = frontier.num_unreleased();
    recorder->record(frame);
  };

  for (Cycles clock = start_clock;
       !schedule.complete() && clock <= scenario.tau && clock < end_clock;
       clock += params.dt) {
    ++tally.ticks;
    if (recorder != nullptr) {
      tick_start = tally;
      step_pool_seconds = 0.0;
      step_last_pool = 0;
      step_timed = false;
    }
    frontier.advance_to(clock);

    for (MachineId machine = 0; machine < num_machines; ++machine) {
      if (schedule.complete()) break;
      // Churn: a machine outside its presence window is invisible to the
      // sweep. Only CURRENT presence is consulted — SLRH never anticipates a
      // departure; it discovers one at the next timestep like any observer.
      if (!scenario.machine_available(machine, clock)) continue;
      if (schedule.machine_ready(machine) > clock) continue;  // not available
      // O(1) cross-tick skip: the cached verdict proves this machine's pool
      // would be built and nothing mapped from it.
      if (sweep.can_skip(machine, clock, params.horizon, frontier.revision())) {
        ++tally.scopes_skipped;
        continue;
      }
      ++tally.scopes_built;
      memo.begin_scope();

      // Scope bookkeeping for the cross-tick verdict: the smallest proven
      // lower bound on a beyond-horizon arrival from any walk (the
      // arrival_lower_bound of a pruned candidate, the exact arrival of a
      // planned one) and whether the scope committed.
      Cycles min_beyond = SweepContext::kNoArrival;
      bool scope_committed = false;

      switch (params.variant) {
        case SlrhVariant::V1: {
          const auto pool = make_pool(machine, clock);
          if (pool.empty()) break;
          scope_committed = try_map(pool, machine, clock, 0, min_beyond) != npos;
          break;
        }
        case SlrhVariant::V2: {
          // One pool per (machine, timestep); keep assigning pairs from it in
          // score order until exhausted or nothing starts within the horizon.
          const auto pool = make_pool(machine, clock);
          std::size_t next = 0;
          while (next < pool.size()) {
            const std::size_t mapped = try_map(pool, machine, clock, next, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
            next = mapped + 1;
          }
          break;
        }
        case SlrhVariant::V3: {
          // Rebuild and re-score the pool after every assignment; children of
          // the subtask just mapped become admissible immediately.
          for (;;) {
            const auto pool = make_pool(machine, clock);
            if (pool.empty()) break;
            const std::size_t mapped = try_map(pool, machine, clock, 0, min_beyond);
            if (mapped == npos) break;
            scope_committed = true;
          }
          break;
        }
      }

      // Record the cross-tick verdict only for a scope that ended without a
      // commit. Its last pool is then at the current revision: only a commit
      // moves the revision within a tick. A V1/V2 scope that committed walked
      // a pool that predates the commit. A V3 scope that committed and then
      // ended on a fresh pool records nothing either; recording it would
      // move the pool-reuse counters that bench_scale gates exactly.
      if (!scope_committed) {
        sweep.record_verdict(machine, min_beyond, frontier.revision());
      }
    }
    if (recorder != nullptr) {
      // A tick that committed a mapping is always sampled; poll-only and
      // fully idle ticks are decimated (see Options::idle_stride).
      if (tally.maps > tick_start.maps || ++idle_ticks_unsampled >= idle_stride) {
        record_frame(clock);
        idle_ticks_unsampled = 0;
      }
    }
    if (params.heartbeat != nullptr) {
      // Relaxed atomic stores only — the heartbeat thread reads them. Never
      // affects a decision (same null contract as the other handles).
      params.heartbeat->set_clock(
          clock, std::min<Cycles>(scenario.tau, end_clock > 0 ? end_clock - 1
                                                              : scenario.tau));
      params.heartbeat->set_progress(schedule.num_assigned(),
                                     scenario.num_tasks());
    }
  }

  result.iterations += static_cast<std::size_t>(tally.ticks);
  result.pools_built += static_cast<std::size_t>(tally.pools);
  result.pools_reused += static_cast<std::size_t>(tally.scopes_skipped);
  if (telemetry.metrics != nullptr) tally.publish(*telemetry.metrics);
}

MappingResult run_slrh(const workload::Scenario& scenario, const SlrhParams& params) {
  params.validate();
  scenario.validate();
  const Stopwatch timer;
  const std::string heuristic = to_string(params.variant);
  emit_run_begin(params.sink, heuristic, params.weights,
                 scenario_shape_note(scenario));

  auto schedule = make_schedule(scenario);
  MappingResult result;
  const double run_t0 =
      params.recorder != nullptr ? params.recorder->now_seconds() : 0.0;
  drive_slrh(scenario, params, *schedule, /*start_clock=*/0,
             /*end_clock=*/scenario.tau + 1, result);
  if (params.recorder != nullptr) {
    params.recorder->add_span("run:" + heuristic, run_t0,
                              params.recorder->now_seconds() - run_t0);
  }

  result = finalize_result(scenario, std::move(schedule), timer, std::move(result));
  emit_run_end(params.sink, heuristic, params.weights, result);
  return result;
}

}  // namespace ahg::core
