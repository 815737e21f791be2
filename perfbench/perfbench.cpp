// perfbench: the repository benchmark program.
//
// One process runs one workload, generated from --seed:
//
//   wide_v3     24 layered-DAG scenarios of |T| = 2048, |M| = 16, one SLRH-3
//               run each (alpha 0.6, beta 0.3, dT 10, H 100)
//   wide_v1     48 layered-DAG scenarios of |T| = 1024, |M| = 32, one SLRH-1
//               run each (same weights and clock)
//   paper_tune  the |T| = 1024 paper suite, Case A, four (ETC, DAG)
//               scenarios; tune_weights (0.1 coarse, 0.02 fine) for SLRH-1,
//               SLRH-3 and Max-Max with probes on the global pool
//
// The scale recipe is bench_scale's: half-fast/half-slow grid, a layered DAG
// of mean level width max(32, |T| / 32), tau and batteries scaled by the
// per-machine pressure (128 subtasks per machine on wide_v3, as in
// bench_scale's smoke tier; 32 on wide_v1). One mapping section maps every
// scenario of the workload once, from one lane per pool thread.
//
// Every run uses the engine's default configuration: no path-selection knob
// and no cache build mode is set here. The global pool has one worker
// (kPoolWorkers), so parallel_for runs on that worker and its caller: two
// threads. On a shared host one vCPU can run markedly slower
// than another for seconds at a time; two threads that share a section's
// scenarios (or the tuner's probes) average over two vCPUs, where one thread
// follows the vCPU it sits on. With two or more workers the engine also fans
// every SLRH tick out speculatively, and each tick then waits for its
// slowest thread.
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// engine: the mapping section repeats, each time on a fresh set-up, while
// another section still fits in --seconds of mapping time; setup_s and map_s
// are the medians. --trace 1 sets up once with spans, runs the mapping
// section untraced once, then again as the traced run: spans around every
// call into a layer's public function, plus one obs::ForwardSink (its own
// registry) per heuristic for the engine's phase histograms. It reports the
// per-layer metrics and fails if the traced run did different work.
//
// Every mapping output is checked: validate_schedule on each scale run and
// each tuned-best schedule; each output is compared with the first mapping
// section of the process and, when perfbench/reference.txt holds entries
// for (workload, seed), with those. --record rewrites those entries.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/heuristics.hpp"
#include "core/scenario_cache.hpp"
#include "core/slrh.hpp"
#include "core/tuner.hpp"
#include "core/upper_bound.hpp"
#include "core/validate.hpp"
#include "sim/schedule.hpp"
#include "support/event_log.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- spans -------------------------------------------------------------------

/// One completed span: a call the benchmark made into a layer.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;     ///< id of the root span of this tree
  std::string name;
  std::string label;  ///< heuristic or scenario the call served; may be empty
  std::uint32_t thread = 0;  ///< 0 = the thread that created the tracer
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

/// In-memory span store, written out when the benchmark ends. Thread-safe:
/// tuner probes record from pool workers.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) { thread_index(); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  double now() const { return seconds_between(epoch_, Clock::now()); }

  void record(Span span) {
    std::lock_guard lock(mutex_);
    span.thread = thread_index_locked();
    spans_.push_back(std::move(span));
  }

  /// Per thread, the time covered by spans named `name` (nested or
  /// overlapping spans counted once), summed over threads.
  double busy_seconds(const std::string& name) const {
    std::lock_guard lock(mutex_);
    std::map<std::uint32_t, std::vector<std::pair<double, double>>> by_thread;
    for (const Span& s : spans_) {
      if (s.name == name) by_thread[s.thread].emplace_back(s.start, s.end);
    }
    double busy = 0.0;
    for (auto& [thread, intervals] : by_thread) {
      std::sort(intervals.begin(), intervals.end());
      double covered_to = -1.0;
      for (const auto& [start, end] : intervals) {
        const double from = std::max(start, covered_to);
        if (end > from) busy += end - from;
        covered_to = std::max(covered_to, end);
      }
    }
    return busy;
  }

  /// Sum of durations and count of spans named `name` (and, when given,
  /// labelled `label`).
  std::pair<double, std::size_t> total(const std::string& name,
                                       const std::string* label = nullptr) const {
    std::lock_guard lock(mutex_);
    double sum = 0.0;
    std::size_t count = 0;
    for (const Span& s : spans_) {
      if (s.name != name || (label != nullptr && s.label != *label)) continue;
      sum += s.end - s.start;
      ++count;
    }
    return {sum, count};
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    std::lock_guard lock(mutex_);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << ",\"thread\":" << s.thread << ",\"name\":\"" << s.name
          << "\",\"label\":\"" << s.label << "\",\"start\":" << format_double(s.start)
          << ",\"end\":" << format_double(s.end) << "}\n";
    }
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
  }

 private:
  std::uint32_t thread_index() {
    std::lock_guard lock(mutex_);
    return thread_index_locked();
  }
  std::uint32_t thread_index_locked() {
    const auto [it, added] = threads_.emplace(std::this_thread::get_id(),
                                              static_cast<std::uint32_t>(threads_.size()));
    return it->second;
  }

  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Records its lifetime as a span. A null tracer makes it a no-op that reads
/// no clock — the untraced runs construct these too.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, std::string label = {},
            const SpanScope* parent = nullptr)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->next_id();
    span_.parent = parent != nullptr ? parent->span_.id : 0;
    span_.run = parent != nullptr ? parent->span_.run : span_.id;
    span_.name = std::move(name);
    span_.label = std::move(label);
    span_.start = tracer_->now();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (tracer_ == nullptr) return;
    span_.end = tracer_->now();
    tracer_->record(std::move(span_));
  }

 private:
  Tracer* tracer_;
  Span span_;
};

// --- workloads -----------------------------------------------------------------

enum class Kind { Scale, Tune };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t instances;  ///< scenarios generated from one seed
  std::size_t tasks;
  std::size_t machines;
  std::vector<core::HeuristicKind> heuristics;
};

const std::vector<Workload>& workloads() {
  using core::HeuristicKind;
  static const std::vector<Workload> all = {
      {"wide_v3", Kind::Scale, 24, 2048, 16, {HeuristicKind::Slrh3}},
      {"wide_v1", Kind::Scale, 48, 1024, 32, {HeuristicKind::Slrh1}},
      {"paper_tune", Kind::Tune, 4, 1024, 4,
       {HeuristicKind::Slrh1, HeuristicKind::Slrh3, HeuristicKind::MaxMax}},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Metric-name prefix of a heuristic.
std::string label_of(core::HeuristicKind kind) {
  switch (kind) {
    case core::HeuristicKind::Slrh1: return "slrh1";
    case core::HeuristicKind::Slrh2: return "slrh2";
    case core::HeuristicKind::Slrh3: return "slrh3";
    case core::HeuristicKind::MaxMax: return "maxmax";
  }
  return "unknown";
}


/// One scenario ready to map: the generated inputs and their shared tables.
struct Prepared {
  std::string label;
  std::unique_ptr<workload::Scenario> scenario;
  std::unique_ptr<core::ScenarioCache> cache;
  std::size_t upper_bound = 0;
};

/// The scale recipe: half-fast/half-slow grid, Gamma-CVB ETC, a layered DAG
/// of about 32 levels whose width grows with |T|, and tau and batteries
/// scaled by the per-machine pressure relative to the paper's 1024 tasks on
/// 4 machines.
std::unique_ptr<workload::Scenario> make_scale_scenario(const Workload& w,
                                                        std::uint64_t seed,
                                                        const std::string& label,
                                                        Tracer* tracer,
                                                        const SpanScope* parent) {
  const double pressure =
      (static_cast<double>(w.tasks) / static_cast<double>(w.machines)) / 256.0;
  auto grid = sim::GridConfig::make(w.machines / 2, w.machines - w.machines / 2)
                  .with_battery_scale(pressure);
  workload::DagGeneratorParams dag_params;
  dag_params.num_nodes = w.tasks;
  dag_params.mean_level_width = std::max<std::size_t>(32, w.tasks / 32);

  std::optional<workload::Dag> dag;
  {
    SpanScope span(tracer, "generate_dag", label, parent);
    dag.emplace(workload::generate_dag(dag_params, seed));
  }
  std::optional<workload::DataSizes> data;
  {
    SpanScope span(tracer, "generate_data_sizes", label, parent);
    data.emplace(workload::generate_data_sizes({}, *dag, seed + 1));
  }
  std::optional<workload::EtcMatrix> etc;
  {
    SpanScope span(tracer, "generate_etc", label, parent);
    etc.emplace(workload::generate_etc({}, w.tasks, workload::machine_classes(grid),
                                       seed + 2));
  }
  auto scenario = std::make_unique<workload::Scenario>(workload::Scenario{
      std::move(grid), std::move(*dag), std::move(*etc), std::move(*data),
      workload::VersionModel{}, cycles_from_seconds(34075.0 * pressure)});
  scenario->validate();
  return scenario;
}

/// Seed of instance i of a scale workload: a splitmix64 step, so instances of
/// neighbouring seeds share no generator seed.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Generate the workload's scenarios (no tables).
std::vector<Prepared> generate(const Workload& w, std::uint64_t seed, Tracer* tracer,
                               const SpanScope* parent) {
  std::vector<Prepared> out;
  if (w.kind == Kind::Scale) {
    for (std::size_t i = 0; i < w.instances; ++i) {
      const std::string label = "i" + std::to_string(i);
      out.push_back(Prepared{
          label, make_scale_scenario(w, instance_seed(seed, i), label, tracer, parent),
          {}, 0});
    }
    return out;
  }
  workload::SuiteParams params;
  params.num_tasks = w.tasks;
  params.master_seed = seed;
  const workload::ScenarioSuite suite(params);
  for (std::size_t i = 0; i < w.instances; ++i) {
    const std::string label = "s" + std::to_string(i);
    SpanScope span(tracer, "ScenarioSuite::make", label, parent);
    out.push_back(Prepared{
        label,
        std::make_unique<workload::Scenario>(suite.make(sim::GridCase::A, i, i)),
        {},
        0});
  }
  return out;
}

/// Full set-up: generation, ScenarioCache build, and (tuning workload) the
/// T100 upper bound of every scenario.
std::vector<Prepared> set_up(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  SpanScope root(tracer, "setup", w.name);
  std::vector<Prepared> prepared = generate(w, seed, tracer, &root);
  for (Prepared& p : prepared) {
    {
      SpanScope span(tracer, "ScenarioCache", p.label, &root);
      p.cache = std::make_unique<core::ScenarioCache>(*p.scenario);
    }
    if (w.kind == Kind::Tune) {
      SpanScope span(tracer, "compute_upper_bound", p.label, &root);
      p.upper_bound = core::compute_upper_bound(*p.scenario, p.cache.get()).bound;
    }
  }
  return prepared;
}

// --- digests -------------------------------------------------------------------

class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 1099511628211ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of a generated scenario: DAG edges with their data volumes, the
/// ETC matrix, batteries and tau.
std::uint64_t scenario_digest(const workload::Scenario& s) {
  Fnv fnv;
  fnv.add(s.tau);
  for (const sim::MachineSpec& m : s.grid.machines()) fnv.add(m.battery_capacity);
  const auto n = static_cast<TaskId>(s.dag.num_nodes());
  const auto machines = static_cast<MachineId>(s.grid.num_machines());
  for (TaskId t = 0; t < n; ++t) {
    for (const TaskId p : s.dag.parents(t)) {
      fnv.add(p);
      fnv.add(s.data.bits(p, t));
    }
    fnv.add(t);
    for (MachineId m = 0; m < machines; ++m) fnv.add(s.etc.seconds(t, m));
  }
  return fnv.value();
}

/// Digest of a schedule: every assignment (by task id) and every transfer.
std::uint64_t schedule_digest(const sim::Schedule& schedule) {
  Fnv fnv;
  for (TaskId t = 0; t < static_cast<TaskId>(schedule.num_tasks()); ++t) {
    if (!schedule.is_assigned(t)) continue;
    const sim::Assignment& a = schedule.assignment(t);
    fnv.add(t);
    fnv.add(a.machine);
    fnv.add(a.version);
    fnv.add(a.start);
    fnv.add(a.finish);
    fnv.add(a.energy);
  }
  for (const sim::CommEvent& c : schedule.comm_events()) {
    fnv.add(c.from_task);
    fnv.add(c.to_task);
    fnv.add(c.from_machine);
    fnv.add(c.to_machine);
    fnv.add(c.start);
    fnv.add(c.finish);
    fnv.add(c.energy);
  }
  return fnv.value();
}

/// Canonical text of one run's outcome — what the reference pins.
std::string run_outcome(const core::MappingResult& r) {
  std::ostringstream os;
  os << "t100=" << r.t100 << " assigned=" << r.assigned << " aet=" << r.aet
     << " tec=" << format_double(r.tec) << " complete=" << r.complete
     << " within_tau=" << r.within_tau
     << " digest=" << (r.schedule ? hex(schedule_digest(*r.schedule)) : "none");
  return os.str();
}

// --- the mapping section -------------------------------------------------------

/// Exact work counts, summed over a heuristic's runs.
struct WorkCounters {
  std::uint64_t runs = 0;
  std::uint64_t ticks = 0;
  std::uint64_t pools_built = 0;
  std::uint64_t pools_reused = 0;
  std::uint64_t spec_aborted = 0;

  void add(const core::MappingResult& r) {
    ++runs;
    ticks += r.iterations;
    pools_built += r.pools_built;
    pools_reused += r.pools_reused;
    spec_aborted += r.spec_aborted;
  }
  bool operator==(const WorkCounters&) const = default;
};

std::string describe(const WorkCounters& c) {
  std::ostringstream os;
  os << "runs=" << c.runs << " ticks=" << c.ticks << " pools_built=" << c.pools_built
     << " pools_reused=" << c.pools_reused << " spec_aborted=" << c.spec_aborted;
  return os.str();
}

/// A schedule the section keeps for validation.
struct Kept {
  std::string run;  ///< output key of the run that produced it
  const workload::Scenario* scenario = nullptr;
  core::MappingResult result;
};

/// Phase metrics of the traced run: one registry and sink per heuristic, so
/// the slrh.* histograms of SLRH-1 and SLRH-3 never mix.
struct HeuristicSinks {
  struct Entry {
    obs::MetricsRegistry registry;
    obs::ForwardSink sink{&registry, nullptr};
  };
  std::map<std::string, std::unique_ptr<Entry>> by_label;

  obs::Sink* sink_for(const std::string& label) {
    auto& entry = by_label[label];
    if (!entry) entry = std::make_unique<Entry>();
    return &entry->sink;
  }
};

/// Output key of tuner point k of a (scenario, heuristic): prefix + kPointKey
/// + k; its outcome is "alpha,beta,t100,feasible". The reference file keeps
/// all points of a prefix on one line under prefix + kPointsKey.
constexpr const char* kPointKey = ".point";
constexpr const char* kPointsKey = ".points";

struct Section {
  /// Time of each unit of the section, in a fixed order: one scale run per
  /// instance (two lanes run at once), or one tune_weights call per
  /// (scenario, heuristic).
  std::vector<double> unit_s;
  double map_s = 0.0;  ///< wall time of the whole section
  /// Latency of every tuner probe (empty on the scale workloads).
  std::vector<double> probe_ms;
  std::uint64_t assigned = 0;
  std::uint64_t t100 = 0;
  std::map<std::string, WorkCounters> counters;  ///< by heuristic label
  /// Checked outputs, key -> canonical outcome. Each key names one run.
  std::map<std::string, std::string> outputs;
  std::vector<Kept> kept;
};

constexpr double kScaleAlpha = 0.6;
constexpr double kScaleBeta = 0.3;

Section map_scale(const Workload& w, const std::vector<Prepared>& prepared,
                  Tracer* tracer, HeuristicSinks* sinks) {
  Section section;
  const core::HeuristicKind kind = w.heuristics.front();
  const std::string label = label_of(kind);
  core::SlrhParams params;
  params.variant =
      kind == core::HeuristicKind::Slrh1 ? core::SlrhVariant::V1 : core::SlrhVariant::V3;
  params.weights = core::Weights::make(kScaleAlpha, kScaleBeta);
  params.dt = 10;
  params.horizon = 100;
  params.sink = sinks != nullptr ? sinks->sink_for(label) : nullptr;

  // The runs are issued from one lane per pool thread (the workers and the
  // caller), each taking the next scenario until none is left.
  const std::size_t n = prepared.size();
  std::vector<core::MappingResult> results(n);
  section.unit_s.assign(n, 0.0);
  std::atomic<std::size_t> next{0};
  SpanScope root(tracer, "map", w.name);
  const auto t0 = Clock::now();
  global_pool().parallel_for(0, global_pool().size() + 1, [&](std::size_t) {
    core::SlrhParams lane = params;
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      lane.cache = prepared[i].cache.get();
      const auto r0 = Clock::now();
      {
        SpanScope span(tracer, "run_slrh", label, &root);
        results[i] = core::run_slrh(*prepared[i].scenario, lane);
      }
      section.unit_s[i] = seconds_between(r0, Clock::now());
    }
  });
  section.map_s = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < n; ++i) {
    core::MappingResult& result = results[i];
    section.assigned += result.assigned;
    section.t100 += result.t100;
    section.counters[label].add(result);
    const std::string key = prepared[i].label + "." + label + ".run";
    section.outputs[key] = run_outcome(result);
    section.kept.push_back(Kept{key, prepared[i].scenario.get(), std::move(result)});
  }
  return section;
}

Section map_tune(const Workload& w, const std::vector<Prepared>& prepared,
                 Tracer* tracer, HeuristicSinks* sinks) {
  Section section;
  std::mutex mutex;
  SpanScope root(tracer, "map", w.name);
  for (const Prepared& p : prepared) {
    for (const core::HeuristicKind kind : w.heuristics) {
      const std::string label = label_of(kind);
      obs::Sink* sink = sinks != nullptr ? sinks->sink_for(label) : nullptr;
      SpanScope tune_span(tracer, "tune_weights", label, &root);
      const core::WeightedSolver solver = [&](const core::Weights& weights) {
        SpanScope probe_span(tracer, "tune_weights.probe", label, &tune_span);
        const auto r0 = Clock::now();
        core::MappingResult r;
        {
          SpanScope run_span(tracer, "run_heuristic", label, &probe_span);
          r = core::run_heuristic(kind, *p.scenario, weights, core::SlrhClock{},
                                  core::AetSign::Reward, sink, p.cache.get());
        }
        const double ms = seconds_between(r0, Clock::now()) * 1e3;
        std::lock_guard lock(mutex);
        section.probe_ms.push_back(ms);
        section.assigned += r.assigned;
        section.counters[label].add(r);
        return r;
      };
      core::TunerParams params;
      params.coarse_step = 0.1;
      params.fine_step = 0.02;
      params.parallel = true;
      const auto t0 = Clock::now();
      const core::TuneOutcome outcome = core::tune_weights(solver, params);
      section.unit_s.push_back(seconds_between(t0, Clock::now()));
      section.map_s += section.unit_s.back();

      const std::string prefix = p.label + "." + label;
      std::size_t best_index = outcome.evaluated.size();
      for (std::size_t k = 0; k < outcome.evaluated.size(); ++k) {
        const core::TunedPoint& pt = outcome.evaluated[k];
        char point[96];
        std::snprintf(point, sizeof point, "%.6g,%.6g,%zu,%d", pt.alpha, pt.beta, pt.t100,
                      pt.feasible ? 1 : 0);
        section.outputs[prefix + kPointKey + std::to_string(k)] = point;
        if (outcome.found && pt.alpha == outcome.alpha && pt.beta == outcome.beta) {
          best_index = k;
        }
      }
      if (outcome.found) {
        section.t100 += outcome.best.t100;
        // The best run is one of the probes: its checks count against that
        // probe's key.
        const std::string key = prefix + kPointKey + std::to_string(best_index);
        section.outputs[prefix + ".best"] =
            "upper_bound=" + std::to_string(p.upper_bound) + " " + run_outcome(outcome.best);
        section.kept.push_back(Kept{key, p.scenario.get(), outcome.best});
      } else {
        section.outputs[prefix + ".best"] = "none";
      }
    }
  }
  return section;
}

Section map_workload(const Workload& w, const std::vector<Prepared>& prepared,
                     Tracer* tracer, HeuristicSinks* sinks) {
  return w.kind == Kind::Scale ? map_scale(w, prepared, tracer, sinks)
                               : map_tune(w, prepared, tracer, sinks);
}

/// The run a check failure is charged to: ".best" outputs belong to the
/// probe that produced them, which map_tune recorded in `kept`.
std::string run_of_key(const Section& section, const std::string& key) {
  const std::string suffix = ".best";
  if (key.size() > suffix.size() &&
      key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
    const std::string prefix = key.substr(0, key.size() - suffix.size()) + kPointKey;
    for (const Kept& k : section.kept) {
      if (k.run.rfind(prefix, 0) == 0) return k.run;
    }
  }
  return key;
}

std::size_t runs_of(const Section& section) {
  std::size_t n = 0;
  for (const auto& [label, c] : section.counters) n += c.runs;
  return n;
}

// --- the reference ------------------------------------------------------------

/// perfbench/reference.txt: "<workload> <seed> <key> <outcome...>" lines,
/// '#' comments. Malformed lines are rejected with their line number.
using Reference = std::map<std::string, std::string>;  // key -> outcome

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  if (!in) return lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

struct RefLine {
  std::string workload;
  std::string seed;
  std::string key;
  std::string outcome;
};

std::optional<RefLine> parse_ref_line(const std::string& path, std::size_t number,
                                      const std::string& line) {
  if (line.empty() || line[0] == '#') return std::nullopt;
  std::istringstream is(line);
  RefLine ref;
  if (!(is >> ref.workload >> ref.seed >> ref.key) || is.peek() != ' ') {
    throw std::runtime_error(path + ":" + std::to_string(number) +
                             ": expected '<workload> <seed> <key> <outcome>'");
  }
  std::getline(is >> std::ws, ref.outcome);
  if (ref.outcome.empty()) {
    throw std::runtime_error(path + ":" + std::to_string(number) + ": empty outcome");
  }
  return ref;
}

Reference load_reference(const std::string& path, const std::string& workload,
                         std::uint64_t seed) {
  Reference ref;
  const std::vector<std::string> lines = read_lines(path);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto parsed = parse_ref_line(path, i + 1, lines[i]);
    if (!parsed || parsed->workload != workload || parsed->seed != std::to_string(seed)) {
      continue;
    }
    const auto add = [&](const std::string& key, const std::string& outcome) {
      if (!ref.emplace(key, outcome).second) {
        throw std::runtime_error(path + ":" + std::to_string(i + 1) + ": duplicate key " +
                                 key);
      }
    };
    const std::string& key = parsed->key;
    const std::size_t n = std::strlen(kPointsKey);
    if (key.size() > n && key.compare(key.size() - n, n, kPointsKey) == 0) {
      std::istringstream points(parsed->outcome);
      std::string point;
      for (std::size_t k = 0; points >> point; ++k) {
        add(key.substr(0, key.size() - n) + kPointKey + std::to_string(k), point);
      }
    } else {
      add(key, parsed->outcome);
    }
  }
  return ref;
}

/// Split "<prefix>.point<k>" into (prefix, k); nullopt for other keys.
std::optional<std::pair<std::string, std::size_t>> split_point_key(const std::string& key) {
  const std::size_t at = key.rfind(kPointKey);
  if (at == std::string::npos) return std::nullopt;
  const std::string digits = key.substr(at + std::strlen(kPointKey));
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::make_pair(key.substr(0, at), static_cast<std::size_t>(std::stoul(digits)));
}

void record_reference(const std::string& path, const std::string& workload,
                      std::uint64_t seed, const Section& section) {
  std::vector<std::string> kept_lines;
  const std::vector<std::string> lines = read_lines(path);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto parsed = parse_ref_line(path, i + 1, lines[i]);
    if (parsed && parsed->workload == workload && parsed->seed == std::to_string(seed)) {
      continue;
    }
    kept_lines.push_back(lines[i]);
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const std::string& line : kept_lines) out << line << "\n";
  std::map<std::string, std::map<std::size_t, std::string>> points;
  for (const auto& [key, outcome] : section.outputs) {
    if (const auto point = split_point_key(key)) {
      points[point->first][point->second] = outcome;
    } else {
      out << workload << " " << seed << " " << key << " " << outcome << "\n";
    }
  }
  for (const auto& [prefix, by_index] : points) {
    out << workload << " " << seed << " " << prefix << kPointsKey;
    for (const auto& [k, outcome] : by_index) out << " " << outcome;
    out << "\n";
  }
}

// --- checks ---------------------------------------------------------------------

struct Checks {
  std::set<std::string> failed_runs;  ///< "<section>/<run key>"
  std::size_t attempted = 0;
  std::size_t violations = 0;
  double validate_s = 0.0;
  std::vector<std::string> messages;

  void fail(const std::string& section, const std::string& run, const std::string& why) {
    failed_runs.insert(section + "/" + run);
    if (messages.size() < 20) messages.push_back(section + "/" + run + ": " + why);
  }
};

/// Validate every kept schedule and compare the outputs with the reference
/// and with the process's first section.
void check_section(const std::string& name, const Section& section,
                   const Section* first, const Reference& reference,
                   Tracer* tracer, Checks& checks) {
  checks.attempted += runs_of(section);
  {
    SpanScope root(tracer, "validate", name);
    const auto t0 = Clock::now();
    for (const Kept& k : section.kept) {
      core::ValidateOptions options;
      options.require_complete = k.result.complete;
      options.require_within_tau = k.result.within_tau;
      core::ValidationReport report;
      {
        SpanScope span(tracer, "validate_schedule", k.run, &root);
        report = core::validate_schedule(*k.scenario, *k.result.schedule, options);
      }
      checks.violations += report.violations.size();
      if (!report.ok()) checks.fail(name, k.run, "validate_schedule: " + report.str());
    }
    checks.validate_s += seconds_between(t0, Clock::now());
  }
  const auto compare = [&](const std::map<std::string, std::string>& expected,
                           const char* against) {
    for (const auto& [key, outcome] : section.outputs) {
      const auto it = expected.find(key);
      if (it == expected.end()) {
        checks.fail(name, run_of_key(section, key), std::string("no ") + against +
                                                        " entry for " + key);
      } else if (it->second != outcome) {
        checks.fail(name, run_of_key(section, key),
                    key + " differs from " + against + ": got '" + outcome +
                        "', expected '" + it->second + "'");
      }
    }
    for (const auto& [key, outcome] : expected) {
      if (section.outputs.count(key) == 0) {
        checks.fail(name, key, std::string("missing output for ") + against + " key");
      }
    }
  };
  if (!reference.empty()) compare(reference, "reference");
  if (first != nullptr && first != &section) {
    compare(first->outputs, "first section");
    for (const auto& [label, c] : section.counters) {
      const auto it = first->counters.find(label);
      if (it == first->counters.end() || !(it->second == c)) {
        checks.fail(name, "counters." + label,
                    "work counters " + describe(c) + " differ from the first section's");
      }
    }
  }
}

// --- output ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Whole-machine CPU time from /proc/stat: the total and the part a
/// hypervisor gave to other guests ("steal"). A high steal share during the
/// mapping sections means the host inflated the wall times.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

std::optional<CpuTimes> read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return std::nullopt;
  CpuTimes times;
  for (int field = 0; field < 8; ++field) {  // user .. steal
    double jiffies = 0.0;
    if (!(in >> jiffies)) return std::nullopt;
    times.total += jiffies;
    if (field == 7) times.steal = jiffies;
  }
  return times;
}

std::string steal_share(const std::optional<CpuTimes>& before) {
  const std::optional<CpuTimes> after = read_cpu_times();
  if (!before || !after || after->total <= before->total) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f %%",
                100.0 * (after->steal - before->steal) / (after->total - before->total));
  return buf;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << format_double(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 20040426;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  bool scenario_digest = false;
  std::string reference = "perfbench/reference.txt";
  std::string spans;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload wide_v3|wide_v1|paper_tune --seed N\n"
               "                 [--seconds S] [--trace 0|1]\n"
               "                 [--reference FILE] [--spans FILE] [--record]\n"
               "                 [--scenario-digest]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        const std::string v = value();
        std::size_t used = 0;
        o.seed = std::stoull(v, &used);
        if (used != v.size()) usage("bad --seed " + v);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (arg == "--reference") {
        o.reference = value();
      } else if (arg == "--spans") {
        o.spans = value();
      } else if (arg == "--record") {
        o.record = true;
      } else if (arg == "--scenario-digest") {
        o.scenario_digest = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown workload '" + o.workload + "'");
  return o;
}

/// Per-layer metrics of one heuristic from its sink registry, the traced
/// section's work counters and the run spans.
void heuristic_layer_metrics(const std::string& label, const HeuristicSinks& sinks,
                             const Section& traced, const Tracer& tracer,
                             std::vector<Metric>& out) {
  obs::MetricsSnapshot snap;
  if (const auto it = sinks.by_label.find(label); it != sinks.by_label.end()) {
    snap = it->second->registry.snapshot();
  }
  const auto hist = [&](const char* name) {
    const obs::HistogramSnapshot* h = snap.find_histogram(name);
    return h != nullptr ? h->sum : 0.0;
  };
  const auto counter = [&](const char* name) {
    const obs::CounterSnapshot* c = snap.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value) : 0.0;
  };
  WorkCounters work;
  if (const auto it = traced.counters.find(label); it != traced.counters.end()) {
    work = it->second;
  }
  // Scale runs call run_slrh, tuner probes run_heuristic.
  const auto [slrh_s, slrh_runs] = tracer.total("run_slrh", &label);
  const auto [heuristic_s, heuristic_runs] = tracer.total("run_heuristic", &label);
  const double run_s = slrh_s + heuristic_s;
  const std::size_t runs = slrh_runs + heuristic_runs;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::string h = label + ".";
  if (label == "maxmax") {
    const double select_s = hist("maxmax.select_seconds");
    out.push_back({h + "select_s", select_s, "s"});
    out.push_back({h + "ticks", count(work.ticks), "count"});
    out.push_back({h + "map_decisions", counter("maxmax.map_decisions"), "count"});
    out.push_back({h + "run_s", run_s, "s"});
    out.push_back({h + "runs", static_cast<double>(runs), "count"});
    out.push_back({h + "unattributed_s", run_s - select_s, "s"});
    return;
  }
  const double placement_s = hist("slrh.placement_seconds");
  const double pool_build_s = hist("slrh.pool_build_seconds");
  const double sweep_s = hist("slrh.sweep_parallel_seconds");
  const double scopes = count(work.pools_built + work.pools_reused);
  out.push_back({h + "placement_s", placement_s, "s"});
  out.push_back({h + "probe_s", hist("slrh.earliest_start_seconds"), "s"});
  out.push_back({h + "pool_build_s", pool_build_s, "s"});
  out.push_back({h + "scoring_s", hist("slrh.scoring_seconds"), "s"});
  out.push_back({h + "pools_built", count(work.pools_built), "count"});
  out.push_back({h + "pools_reused", count(work.pools_reused), "count"});
  out.push_back({h + "reuse_ratio", scopes > 0 ? count(work.pools_reused) / scopes : 0.0,
                 "ratio"});
  out.push_back({h + "ticks", count(work.ticks), "count"});
  out.push_back({h + "map_decisions", counter("slrh.map_decisions"), "count"});
  out.push_back({h + "run_s", run_s, "s"});
  out.push_back({h + "runs", static_cast<double>(runs), "count"});
  out.push_back({h + "unattributed_s", run_s - pool_build_s - placement_s - sweep_s, "s"});
}

/// Untraced set-up repeats at least kMinSetups times and, for cheap set-ups,
/// until kSetupSeconds of set-up time has been measured (at most kMaxSetups).
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetups = 25;

/// Worker threads of the global pool (see the header comment).
constexpr std::size_t kPoolWorkers = 1;

int run(const Options& o) {
  const Workload& w = *find_workload(o.workload);
  const std::size_t workers = kPoolWorkers;
  configure_global_pool(workers);

  if (o.scenario_digest) {
    Fnv all;
    for (const Prepared& p : generate(w, o.seed, nullptr, nullptr)) {
      const std::uint64_t d = scenario_digest(*p.scenario);
      all.add(d);
      std::cout << "scenario " << p.label << " " << hex(d) << "\n";
    }
    std::cout << "digest " << hex(all.value()) << std::endl;
    return 0;
  }

  const Reference reference =
      o.record ? Reference{} : load_reference(o.reference, w.name, o.seed);
  std::cout << "perfbench " << w.name << " seed=" << o.seed << " workers=" << workers
            << " trace=" << o.trace << "\n"
            << "reference: "
            << (o.record ? std::string("recording")
                : reference.empty()
                    ? "none for this seed (validation and repeat checks only)"
                    : std::to_string(reference.size()) + " outputs")
            << "\n";

  Checks checks;
  std::vector<Metric> metrics;

  if (!o.trace) {
    // Every section maps a fresh set-up, so set-up is timed throughout the
    // run like mapping; more set-ups follow until setup_s has enough
    // samples. Each section is checked and its schedules dropped before the
    // next set-up.
    std::vector<double> setup_s;
    std::set<std::size_t> columns;
    double setup_total = 0.0;
    const auto fresh_set_up = [&] {
      const auto t0 = Clock::now();
      std::vector<Prepared> prepared = set_up(w, o.seed, nullptr);
      setup_s.push_back(seconds_between(t0, Clock::now()));
      setup_total += setup_s.back();
      std::size_t built = 0;
      for (const Prepared& p : prepared) built += p.cache->columns_built();
      columns.insert(built);
      return prepared;
    };

    // Sections repeat while one more (at their mean time) still fits.
    std::vector<Section> sections;
    double mapped = 0.0;
    const std::optional<CpuTimes> cpu_before = read_cpu_times();
    do {
      const std::vector<Prepared> prepared = fresh_set_up();
      sections.push_back(map_workload(w, prepared, nullptr, nullptr));
      mapped += sections.back().map_s;
      check_section("map" + std::to_string(sections.size() - 1), sections.back(),
                    &sections.front(), reference, nullptr, checks);
      sections.back().kept.clear();
    } while (!o.record &&
             mapped + mapped / static_cast<double>(sections.size()) <= o.seconds);
    while (static_cast<int>(setup_s.size()) < kMinSetups ||
           (setup_total < kSetupSeconds && static_cast<int>(setup_s.size()) < kMaxSetups)) {
      fresh_set_up();
    }
    if (columns.size() != 1) checks.fail("setup", "columns_built", "differs between set-ups");
    if (o.record) {
      if (!checks.failed_runs.empty()) {
        for (const std::string& m : checks.messages) std::cerr << m << "\n";
        std::cerr << "perfbench: not recording a reference that fails validation\n";
        return 1;
      }
      record_reference(o.reference, w.name, o.seed, sections.front());
      std::cout << "recorded " << sections.front().outputs.size() << " outputs for "
                << w.name << " seed " << o.seed << " in " << o.reference << std::endl;
      return 0;
    }

    // map_s: the median section wall time.
    std::vector<double> section_s;
    for (const Section& s : sections) section_s.push_back(s.map_s);
    const double map_s = median(section_s);
    // Per-run latency: every tuner probe on paper_tune; on the scale
    // workloads each run_slrh call (one per scenario), as its median over
    // the sections.
    std::vector<double> request_ms;
    for (const Section& s : sections) {
      request_ms.insert(request_ms.end(), s.probe_ms.begin(), s.probe_ms.end());
    }
    if (request_ms.empty()) {
      for (std::size_t u = 0; u < sections.front().unit_s.size(); ++u) {
        std::vector<double> repeats;
        for (const Section& s : sections) repeats.push_back(s.unit_s[u]);
        request_ms.push_back(median(repeats) * 1e3);
      }
    }
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"map_s", map_s, "s"},
        {"tasks_per_s", static_cast<double>(sections.front().assigned) / map_s, "1/s"},
        {"run_p50_ms", percentile(request_ms, 50.0), "ms"},
        {"run_p99_ms", percentile(request_ms, 99.0), "ms"},
        {"t100", static_cast<double>(sections.front().t100), "count"},
    };
    std::cout << "samples: setup_s " << setup_s.size() << " set-ups; map_s "
              << sections.size() << " sections of " << sections.front().unit_s.size()
              << " units; run latency " << request_ms.size() << " runs\n";
    std::cout << "section times:";
    for (const Section& s : sections) std::cout << " " << format_double(s.map_s);
    std::cout << "\nhost steal during mapping: " << steal_share(cpu_before) << "\n";
  } else {
    Tracer tracer;
    HeuristicSinks sinks;
    const std::vector<Prepared> prepared = set_up(w, o.seed, &tracer);
    const std::optional<CpuTimes> cpu_before = read_cpu_times();
    const Section untraced = map_workload(w, prepared, nullptr, nullptr);
    const Section traced = map_workload(w, prepared, &tracer, &sinks);
    const std::string steal = steal_share(cpu_before);
    check_section("untraced", untraced, &untraced, reference, &tracer, checks);
    check_section("traced", traced, &untraced, reference, &tracer, checks);

    for (const core::HeuristicKind kind :
         {core::HeuristicKind::Slrh1, core::HeuristicKind::Slrh3,
          core::HeuristicKind::MaxMax}) {
      heuristic_layer_metrics(label_of(kind), sinks, traced, tracer, metrics);
    }
    std::size_t cache_bytes = 0;
    std::size_t columns = 0;
    for (const Prepared& p : prepared) {
      cache_bytes += p.cache->memory_bound_bytes();
      columns += p.cache->columns_built();
    }
    std::size_t timeline_bytes = 0;
    for (const Kept& k : traced.kept) timeline_bytes += k.result.schedule->timeline_memory_bytes();
    const auto span_sum = [&](const char* name) { return tracer.total(name).first; };
    const double generate_s = span_sum("generate_dag") + span_sum("generate_data_sizes") +
                              span_sum("generate_etc") + span_sum("ScenarioSuite::make");
    const std::size_t probes = tracer.total("tune_weights.probe").second;
    metrics.push_back({"workload.generate_s", generate_s, "s"});
    metrics.push_back({"scenario_cache.build_s", span_sum("ScenarioCache"), "s"});
    metrics.push_back({"scenario_cache.bytes", static_cast<double>(cache_bytes), "bytes"});
    metrics.push_back({"scenario_cache.columns_built", static_cast<double>(columns), "count"});
    metrics.push_back({"schedule.timeline_bytes", static_cast<double>(timeline_bytes), "bytes"});
    metrics.push_back({"upper_bound.s", span_sum("compute_upper_bound"), "s"});
    metrics.push_back({"tuner.tune_s", span_sum("tune_weights"), "s"});
    metrics.push_back({"tuner.probes", static_cast<double>(probes), "count"});
    // Probes run on the pool workers and on the thread that called the
    // tuner, which helps while it waits.
    metrics.push_back({"thread_pool.busy_frac",
                       tracer.busy_seconds("tune_weights.probe") /
                           (traced.map_s * static_cast<double>(workers + 1)),
                       "ratio"});
    metrics.push_back({"validate.s", span_sum("validate_schedule"), "s"});
    metrics.push_back({"validate.violations", static_cast<double>(checks.violations), "count"});
    metrics.push_back({"trace.overhead_ratio", traced.map_s / untraced.map_s, "ratio"});
    metrics.push_back({"process.peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"});
    std::cout << "untraced map_s " << format_double(untraced.map_s) << ", traced map_s "
              << format_double(traced.map_s) << ", " << tracer.size()
              << " spans, host steal during mapping " << steal << "\n";
    for (const auto& [label, c] : traced.counters) {
      std::cout << "work " << label << ": " << describe(c) << " (untraced: "
                << describe(untraced.counters.at(label)) << ")\n";
    }
    if (!o.spans.empty()) {
      tracer.write_jsonl(o.spans);
      std::cout << "spans: " << o.spans << "\n";
    }
  }

  const std::size_t failed = std::min(checks.failed_runs.size(), checks.attempted);
  for (const std::string& m : checks.messages) std::cout << "FAIL " << m << "\n";
  std::cout << "validated: " << checks.violations << " violations in "
            << format_double(checks.validate_s) << " s\n"
            << "fail_ratio: " << failed << "/" << checks.attempted << " runs = "
            << format_double(static_cast<double>(failed) /
                             static_cast<double>(std::max<std::size_t>(1, checks.attempted)))
            << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << format_double(m.value) << " " << m.unit << "\n";
  }
  const bool correct = checks.failed_runs.empty();
  print_result(correct, checks.attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
