// Large-scale end-to-end tier: one SLRH mapping run far above the paper's
// |T| = 1024 — the ad-hoc-grid regime the batched SoA scoring kernel and the
// timeline hole index exist for. Default scale maps |T| = 65 536 subtasks
// onto |M| = 512 machines (128 subtasks per machine, half the paper's
// per-machine pressure, with tau and batteries scaled to match); smoke scale
// is the CI-sized run of the same shape. Dumps BENCH_scale.json /
// BENCH_scale_smoke.json for the regression gate.
//
// Every variant's schedule also goes through the independent validator
// (bench.<variant>_valid, gated exactly; bench.validate_seconds).
//
// The scenario generalises the suite's recipe to an arbitrary machine count:
// a half-fast/half-slow grid, the Gamma-CVB ETC, a layered DAG whose level
// width scales with |T| (wide levels = large ready frontiers = large pools,
// the stress this tier measures), and per-machine tau/battery pressure
// pinned to a constant fraction of the paper's so the runs stay feasible and
// version-mixed at every size.

#include <algorithm>
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "core/scenario_cache.hpp"
#include "core/slrh.hpp"
#include "core/validate.hpp"
#include "support/contract.hpp"
#include "support/env.hpp"
#include "support/event_log.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace ahg;

struct ScaleShape {
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  const char* bench_name = nullptr;
};

ScaleShape shape_for(ReproScale scale) {
  switch (scale) {
    case ReproScale::Smoke:
      return {8192, 64, "scale_smoke"};
    case ReproScale::Default:
    case ReproScale::Paper:
      return {65536, 512, "scale"};
    case ReproScale::Large:
      // The scaling-curve tier (weekly CI). |T| = 1M stays behind
      // AHG_SCALE_TASKS=1048576 — same shape, one doubling step further.
      return {262144, 512, "scale_large"};
  }
  return {65536, 512, "scale"};
}

/// Accepted ranges for the AHG_SCALE_* overrides. 2^20 tasks is the 1M
/// target shape; anything above it would also blow the int32 TaskId budget
/// long before memory does.
constexpr std::int64_t kMaxScaleTasks = 1 << 20;
constexpr std::int64_t kMaxScaleMachines = 1 << 15;

workload::Scenario make_scale_scenario(std::size_t num_tasks,
                                       std::size_t num_machines,
                                       std::uint64_t seed) {
  // Per-machine pressure relative to the paper's 1024 tasks on 4 machines.
  const double pressure = (static_cast<double>(num_tasks) /
                           static_cast<double>(num_machines)) /
                          256.0;
  auto grid = sim::GridConfig::make(num_machines / 2,
                                    num_machines - num_machines / 2)
                  .with_battery_scale(pressure);

  workload::DagGeneratorParams dag_params;
  dag_params.num_nodes = num_tasks;
  // Keep DAG depth roughly constant (~32 levels) as |T| grows, so ready
  // frontiers — and therefore pool sizes — scale with |T|.
  dag_params.mean_level_width = std::max<std::size_t>(32, num_tasks / 32);
  auto dag = workload::generate_dag(dag_params, seed);
  auto data = workload::generate_data_sizes({}, dag, seed + 1);
  auto etc = workload::generate_etc({}, num_tasks,
                                    workload::machine_classes(grid), seed + 2);

  workload::Scenario scenario{std::move(grid),
                              std::move(dag),
                              std::move(etc),
                              std::move(data),
                              workload::VersionModel{},
                              cycles_from_seconds(34075.0 * pressure)};
  scenario.validate();
  return scenario;
}

/// `snapshot` with every metric name labelled by the SLRH variant that
/// produced it: "slrh.pool_build_seconds" -> "slrh.SLRH-1.pool_build_seconds".
obs::MetricsSnapshot label_by_variant(obs::MetricsSnapshot snapshot,
                                      const std::string& variant) {
  const auto label = [&](std::string& name) {
    const std::size_t dot = name.find('.');
    name.insert(dot == std::string::npos ? 0 : dot + 1, variant + ".");
  };
  for (auto& counter : snapshot.counters) label(counter.name);
  for (auto& gauge : snapshot.gauges) label(gauge.name);
  for (auto& histogram : snapshot.histograms) label(histogram.name);
  return snapshot;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahg;
  if (const auto exit_code = bench::handle_bench_flags(argc, argv)) {
    return *exit_code;
  }
  ScaleShape shape = shape_for(repro_scale_from_env());
  // Local-experiment overrides; the gated CI shapes come from REPRO_SCALE.
  // Strictly validated: a malformed or out-of-range value must not silently
  // fall back to the default shape and masquerade as an override run.
  bool overridden = false;
  try {
    if (const std::int64_t t =
            env_int_checked("AHG_SCALE_TASKS", 0, 1, kMaxScaleTasks);
        t > 0) {
      shape.num_tasks = static_cast<std::size_t>(t);
      overridden = true;
    }
    if (const std::int64_t m =
            env_int_checked("AHG_SCALE_MACHINES", 0, 1, kMaxScaleMachines);
        m > 0) {
      shape.num_machines = static_cast<std::size_t>(m);
      overridden = true;
    }
  } catch (const PreconditionError& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
  }
  // An overridden shape dumps (and gates) under its own name — the weekly
  // 1M run must not overwrite the 262k tier's BENCH_scale_large.json or be
  // compared against its baseline.
  std::string bench_name = shape.bench_name;
  if (overridden) {
    bench_name = "scale_" + std::to_string(shape.num_tasks) + "x" +
                 std::to_string(shape.num_machines);
  }

  std::cout << "=== bench_scale (" << bench_name << ") ===\n"
            << build_description() << ", jobs=" << global_pool_jobs() << "\n"
            << "|T|=" << shape.num_tasks << ", |M|=" << shape.num_machines
            << " (REPRO_SCALE=smoke|default|large to change)\n\n";

  bench::BenchReport report(bench_name);
  report.meta("num_tasks", static_cast<std::int64_t>(shape.num_tasks));
  report.meta("num_machines", static_cast<std::int64_t>(shape.num_machines));

  // --worker-trace / --heartbeat observability: live progress for the
  // multi-hour 262k/1M tiers, and the per-worker wall-clock trace for the CI
  // evidence bundle. No flags, no cost.
  bench::RuntimeSession session;
  session.set_phase("scenario_build");

  const auto scenario = report.timed_section("scenario_build", [&] {
    return make_scale_scenario(shape.num_tasks, shape.num_machines, 20040426);
  });
  session.set_phase("cache_build");
  const auto cache = report.timed_section(
      "cache_build", [&] { return core::ScenarioCache(scenario); });
  report.metrics()
      .gauge("bench.cache_columns_built")
      .set(static_cast<double>(cache.columns_built()));

  for (const auto variant : {core::SlrhVariant::V1, core::SlrhVariant::V3}) {
    // Phase sink with a registry of the variant's own: the driver's
    // slrh.*_seconds histograms (pool build, scoring, placement, probe) and
    // pool/reuse/probe counters land in the dump under variant-labelled
    // names (slrh.SLRH-3.probes_pruned), so bench_check --plot-scaling
    // breaks each variant's curve into phases without mixing the two runs.
    obs::MetricsRegistry variant_metrics;
    obs::ForwardSink phase_sink(&variant_metrics, nullptr);
    core::SlrhParams params;
    params.variant = variant;
    params.weights = core::Weights::make(0.6, 0.3);
    params.cache = &cache;
    params.sink = &phase_sink;
    params.heartbeat = session.heartbeat();
    const std::string name = core::to_string(variant);
    session.set_phase(name + "_run");
    const auto result = report.timed_section(
        name + "_run", [&] { return core::run_slrh(scenario, params); });
    report.metrics().counter("bench." + name + "_assigned").add(result.assigned);
    report.metrics().counter("bench." + name + "_t100").add(result.t100);
    report.metrics()
        .counter("bench." + name + "_pools")
        .add(static_cast<std::uint64_t>(result.pools_built));
    report.metrics()
        .counter("bench." + name + "_pools_reused")
        .add(static_cast<std::uint64_t>(result.pools_reused));
    report.merge(label_by_variant(variant_metrics.snapshot(), name));
    report.metrics()
        .counter("bench." + name + "_complete")
        .add(result.complete ? 1 : 0);
    std::cout << name << ": assigned " << result.assigned << "/"
              << shape.num_tasks << ", t100 " << result.t100 << ", pools "
              << result.pools_built << " (+" << result.pools_reused
              << " reused), placement probes "
              << variant_metrics.counter("slrh.placement_probes").value()
              << " (+" << variant_metrics.counter("slrh.probes_pruned").value()
              << " pruned)\n";
    // The independent validator on every tier's schedule. Completeness and
    // the deadline have their own counters, so this one gates the hard
    // constraints: precedence, exclusivity, routing, energy, aggregates.
    session.set_phase(name + "_validate");
    const core::ValidationReport validation = report.timed_section("validate", [&] {
      core::ValidateOptions constraints_only;
      constraints_only.require_complete = false;
      constraints_only.require_within_tau = false;
      return core::validate_schedule(scenario, *result.schedule, constraints_only);
    });
    report.metrics().counter("bench." + name + "_valid").add(validation.ok() ? 1 : 0);
    std::cout << name << ": validator "
              << (validation.ok() ? std::string("ok") : "FAILED\n" + validation.str())
              << "\n";
  }

  session.set_phase("done");
  std::cout << "wrote " << report.write_json() << "\n";
  return 0;
}
