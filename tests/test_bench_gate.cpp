// Tests for the bench regression gate (bench/bench_gate.hpp): metric
// flattening, baseline round-trip, the Upper / Lower / TwoSided verdict
// rules, the seconds floor, missing-metric handling, the strict baseline
// reader (a per-key mutation sweep) and whole-string number flags — the
// logic CI's bench-gate job leans on via bench_check.

#include "bench/bench_gate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "support/args.hpp"
#include "support/jsonl.hpp"
#include "support/metrics.hpp"

namespace {

using namespace ahg;
using bench::GateBaseline;
using bench::GateDirection;
using bench::GateVerdict;

const std::vector<double> kPoolBounds = {8.0, 32.0, 128.0};
const std::vector<double> kUnitBound = {1.0};

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsRegistry registry;
  registry.counter("slrh.maps").add(100);
  registry.gauge("bench.inner_loop_seconds").set(0.010);
  registry.gauge("bench.recorder_overhead_ratio").set(1.02);
  registry.histogram("pool.size", kPoolBounds).observe(20.0);
  return registry.snapshot();
}

TEST(BenchGate, FlattenProducesTypedKeysAndSkipsNonFinite) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(1.5);
  registry.gauge("bad").set(std::numeric_limits<double>::infinity());
  auto& h = registry.histogram("h", kUnitBound);
  h.observe(0.5);
  h.observe(2.0);

  const auto flat = bench::flatten_metrics(registry.snapshot());
  EXPECT_DOUBLE_EQ(flat.at("counter:c"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("gauge:g"), 1.5);
  EXPECT_DOUBLE_EQ(flat.at("hist_mean:h"), 1.25);
  EXPECT_DOUBLE_EQ(flat.at("hist_count:h"), 2.0);
  EXPECT_EQ(flat.count("gauge:bad"), 0u);  // non-finite cannot be gated
}

TEST(BenchGate, DirectionDefaultsByName) {
  EXPECT_EQ(bench::default_direction("gauge:bench.inner_loop_seconds"),
            GateDirection::Upper);
  EXPECT_EQ(bench::default_direction("hist_mean:pool.build_seconds"),
            GateDirection::Upper);
  EXPECT_EQ(bench::default_direction("counter:slrh.maps"),
            GateDirection::TwoSided);
  EXPECT_EQ(bench::default_direction("gauge:bench.recorder_overhead_ratio"),
            GateDirection::TwoSided);
  EXPECT_EQ(bench::default_direction("gauge:bench.parallel_speedup"),
            GateDirection::Lower);
  EXPECT_EQ(bench::default_direction("gauge:bench.warm_speedup"), GateDirection::Lower);
}

TEST(BenchGate, LowerDirectionGatesOnlyAFall) {
  obs::MetricsRegistry registry;
  registry.gauge("bench.parallel_speedup").set(2.0);
  const GateBaseline baseline = bench::make_baseline("b", registry.snapshot(), 0.25);
  ASSERT_EQ(baseline.metrics.at("gauge:bench.parallel_speedup").direction,
            GateDirection::Lower);
  const auto check = [&](double fresh) {
    obs::MetricsRegistry run;
    run.gauge("bench.parallel_speedup").set(fresh);
    return bench::check_bench(baseline, run.snapshot()).regressions;
  };
  EXPECT_EQ(check(2.0), 0u);
  EXPECT_EQ(check(1.6), 0u);   // within 25 %
  EXPECT_EQ(check(40.0), 0u);  // a rise is never a regression
  EXPECT_EQ(check(1.4), 1u);   // a fall past 25 % is
}

TEST(BenchGate, BaselineWriteParseRoundTrips) {
  const GateBaseline before =
      bench::make_baseline("inner_loop", sample_snapshot(), 0.25, 1.5);
  std::ostringstream os;
  bench::write_baseline(os, before);
  const GateBaseline after = bench::parse_baseline(obs::parse_json(os.str()));

  EXPECT_EQ(after.bench, "inner_loop");
  EXPECT_DOUBLE_EQ(after.default_tolerance, 0.25);
  ASSERT_EQ(after.metrics.size(), before.metrics.size());
  for (const auto& [key, metric] : before.metrics) {
    const auto it = after.metrics.find(key);
    ASSERT_NE(it, after.metrics.end()) << key;
    EXPECT_DOUBLE_EQ(it->second.value, metric.value) << key;
    EXPECT_DOUBLE_EQ(it->second.tolerance, metric.tolerance) << key;
    EXPECT_EQ(it->second.direction, metric.direction) << key;
  }
  // seconds_tolerance overrides only Upper metrics.
  EXPECT_DOUBLE_EQ(
      after.metrics.at("gauge:bench.inner_loop_seconds").tolerance, 1.5);
  EXPECT_DOUBLE_EQ(after.metrics.at("counter:slrh.maps").tolerance, 0.25);
}

TEST(BenchGate, IdenticalSnapshotPasses) {
  const auto snapshot = sample_snapshot();
  const GateBaseline baseline = bench::make_baseline("b", snapshot);
  const auto result = bench::check_bench(baseline, snapshot);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.missing, 0u);
  EXPECT_TRUE(result.ok(false));
}

TEST(BenchGate, DoubledCounterOutsideToleranceRegresses) {
  // The acceptance scenario: doctor one metric to 2x with a 25% tolerance.
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);

  obs::MetricsRegistry doctored;
  doctored.counter("slrh.maps").add(200);  // 2x the baseline's 100
  doctored.gauge("bench.inner_loop_seconds").set(0.010);
  doctored.gauge("bench.recorder_overhead_ratio").set(1.02);
  doctored.histogram("pool.size", kPoolBounds).observe(20.0);

  const auto result = bench::check_bench(baseline, doctored.snapshot());
  EXPECT_EQ(result.regressions, 1u);
  EXPECT_FALSE(result.ok(true));
  bool found = false;
  for (const auto& f : result.findings) {
    if (f.metric != "counter:slrh.maps") {
      EXPECT_NE(f.verdict, GateVerdict::Regression) << f.metric;
      continue;
    }
    found = true;
    EXPECT_EQ(f.verdict, GateVerdict::Regression);
    EXPECT_DOUBLE_EQ(f.baseline, 100.0);
    EXPECT_DOUBLE_EQ(f.fresh, 200.0);
  }
  EXPECT_TRUE(found);
}

TEST(BenchGate, TwoSidedCatchesDriftInBothDirections) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);
  obs::MetricsRegistry fewer;
  fewer.counter("slrh.maps").add(60);  // -40% also regresses
  fewer.gauge("bench.inner_loop_seconds").set(0.010);
  fewer.gauge("bench.recorder_overhead_ratio").set(1.02);
  fewer.histogram("pool.size", kPoolBounds).observe(20.0);
  EXPECT_EQ(bench::check_bench(baseline, fewer.snapshot()).regressions, 1u);
}

TEST(BenchGate, UpperDirectionIgnoresImprovement) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot(), 0.25);
  obs::MetricsRegistry faster;
  faster.counter("slrh.maps").add(100);
  faster.gauge("bench.inner_loop_seconds").set(0.0001);  // 100x faster: fine
  faster.gauge("bench.recorder_overhead_ratio").set(1.02);
  faster.histogram("pool.size", kPoolBounds).observe(20.0);
  const auto result = bench::check_bench(baseline, faster.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_TRUE(result.ok(false));
}

TEST(BenchGate, SecondsFloorAbsorbsTinySectionNoise) {
  obs::MetricsRegistry registry;
  registry.gauge("tiny_seconds").set(1e-6);
  const GateBaseline baseline =
      bench::make_baseline("b", registry.snapshot(), 0.25);

  obs::MetricsRegistry noisy;
  noisy.gauge("tiny_seconds").set(2e-3);  // 2000x relative, under the floor
  EXPECT_EQ(bench::check_bench(baseline, noisy.snapshot()).regressions, 0u);

  obs::MetricsRegistry slow;
  slow.gauge("tiny_seconds").set(1e-1);  // over the 5 ms floor: regression
  EXPECT_EQ(bench::check_bench(baseline, slow.snapshot()).regressions, 1u);
}

TEST(BenchGate, MissingMetricsAreFlaggedBothWays) {
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot());
  obs::MetricsRegistry partial;
  partial.counter("slrh.maps").add(100);
  partial.counter("brand.new").add(1);  // not in the baseline

  const auto result = bench::check_bench(baseline, partial.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  // Baseline-only: the seconds gauges + ratio gauge + two histogram keys;
  // fresh-only: the new counter.
  std::size_t missing_fresh = 0;
  std::size_t missing_baseline = 0;
  for (const auto& f : result.findings) {
    if (f.verdict == GateVerdict::MissingFresh) ++missing_fresh;
    if (f.verdict == GateVerdict::MissingBaseline) ++missing_baseline;
  }
  EXPECT_EQ(missing_fresh, 4u);
  EXPECT_EQ(missing_baseline, 1u);
  EXPECT_EQ(result.missing, 5u);
  EXPECT_FALSE(result.ok(false));
  EXPECT_TRUE(result.ok(true));  // --allow-missing downgrades both kinds
}

TEST(BenchGate, FreshOnlyPhaseSecondsDoNotFailTheGate) {
  // An older baseline gating a dump that grew a NEW wall-clock phase (e.g.
  // a newly timed slrh.commit_seconds layer): the phase is
  // reported as MISSING(baseline) for visibility but never fails the gate —
  // its time already rolls up into the gated run totals. A fresh-only
  // TwoSided metric still counts as missing.
  const GateBaseline baseline = bench::make_baseline("b", sample_snapshot());
  obs::MetricsRegistry grown;
  grown.counter("slrh.maps").add(100);
  grown.gauge("bench.inner_loop_seconds").set(0.01);
  grown.gauge("bench.recorder_overhead_ratio").set(1.02);
  grown.histogram("pool.size", kPoolBounds).observe(20.0);
  grown.histogram("slrh.commit_seconds", kPoolBounds).observe(0.5);

  const auto result = bench::check_bench(baseline, grown.snapshot());
  EXPECT_EQ(result.regressions, 0u);
  std::size_t phase_findings = 0;
  for (const auto& f : result.findings) {
    if (f.verdict == GateVerdict::MissingBaseline) {
      EXPECT_NE(f.metric.find("_seconds"), std::string::npos) << f.metric;
      ++phase_findings;
    }
  }
  EXPECT_GT(phase_findings, 0u);  // reported...
  EXPECT_EQ(result.missing, 0u);  // ...but not counted
  EXPECT_TRUE(result.ok(false));

  // Contrast: a fresh-only counter is a real gap.
  grown.counter("brand.new").add(1);
  const auto with_counter = bench::check_bench(baseline, grown.snapshot());
  EXPECT_EQ(with_counter.missing, 1u);
  EXPECT_FALSE(with_counter.ok(false));
}

TEST(BenchGate, BaselinePathJoinsDirAndBenchName) {
  EXPECT_EQ(bench::baseline_path("bench/baselines", "inner_loop"),
            "bench/baselines/BENCH_inner_loop.json");
  EXPECT_EQ(bench::baseline_path(".", "scale"), "./BENCH_scale.json");
}

TEST(BenchGate, CheckWithoutBaselineFlagsEveryFreshMetric) {
  // A dump for a bench that has never been baselined (bench_check's check
  // mode hits this when the file is absent): every flattened metric comes
  // back MISSING(baseline) — a failure by default, tolerated by
  // --allow-missing, never a hard error.
  const auto snapshot = sample_snapshot();
  const auto result = bench::check_without_baseline(snapshot);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.missing, bench::flatten_metrics(snapshot).size());
  EXPECT_EQ(result.findings.size(), result.missing);
  for (const auto& f : result.findings) {
    EXPECT_EQ(f.verdict, GateVerdict::MissingBaseline) << f.metric;
  }
  EXPECT_FALSE(result.ok(false));
  EXPECT_TRUE(result.ok(true));
  // Seeding the baseline from the same dump (what --update writes) then
  // passes cleanly — the create-missing-baseline round trip.
  const GateBaseline seeded = bench::make_baseline("b", snapshot);
  EXPECT_TRUE(bench::check_bench(seeded, snapshot).ok(false));
}

TEST(BenchGate, ParseRejectsMalformedBaselines) {
  EXPECT_THROW(bench::parse_baseline(obs::parse_json("[1]")), PreconditionError);
  EXPECT_THROW(bench::parse_baseline(obs::parse_json(R"({"bench":"b"})")),
               PreconditionError);
}

// --- strict reader: per-key mutation sweep -----------------------------------

/// Parse `text` as a baseline, expecting a PreconditionError whose message
/// holds every one of `needles`.
void expect_rejected(const std::string& text, const std::vector<std::string>& needles) {
  try {
    bench::parse_baseline(obs::parse_json(text));
    ADD_FAILURE() << "accepted: " << text;
  } catch (const PreconditionError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "'" << needle << "' missing from: " << e.what();
    }
  }
}

TEST(BenchGate, StrictReaderNamesTheGuessesItUsedToMake) {
  const std::string metric = R"("counter:c":{"value":1,"tolerance":0.25,"direction":"two-sided"})";
  const auto file = [](const std::string& metrics) {
    return R"({"bench":"b","gate_schema":1,"default_tolerance":0.25,"metrics":{)" +
           metrics + "}}";
  };
  // A missing value used to read as 0.
  expect_rejected(file(R"("counter:c":{"tolerance":0.25,"direction":"upper"})"),
                  {"'counter:c'", "'value'"});
  // A wrong-typed tolerance used to fall back to the default.
  expect_rejected(file(R"("counter:c":{"value":1,"tolerance":"wide","direction":"upper"})"),
                  {"'counter:c'", "'tolerance'"});
  // A typo'd direction used to gate two-sided.
  expect_rejected(file(R"("counter:c":{"value":1,"direction":"uper"})"),
                  {"'counter:c'", "'direction'", "uper"});
  expect_rejected(file(R"("counter:c":{"value":1})"), {"'counter:c'", "'direction'"});
  // The schema used to be written and never read.
  expect_rejected(R"({"bench":"b","gate_schema":2,"metrics":{)" + metric + "}}",
                  {"'gate_schema'"});
  expect_rejected(R"({"bench":"b","metrics":{)" + metric + "}}", {"'gate_schema'"});
  // Non-finite numbers (JSON text cannot carry them, a built value can).
  for (const char* key : {"value", "tolerance"}) {
    obs::JsonValue::Object root = obs::parse_json(file(metric)).as_object();
    obs::JsonValue::Object metrics = root.at("metrics").as_object();
    obs::JsonValue::Object entry = metrics.at("counter:c").as_object();
    entry[key] = obs::JsonValue(std::numeric_limits<double>::infinity());
    metrics["counter:c"] = obs::JsonValue(entry);
    root["metrics"] = obs::JsonValue(metrics);
    try {
      bench::parse_baseline(obs::JsonValue(root));
      ADD_FAILURE() << "accepted an infinite " << key;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + std::string(key) + "'"),
                std::string::npos)
          << e.what();
    }
  }
  // A typo'd key.
  expect_rejected(file(R"("counter:c":{"value":1,"tolerence":0.5,"direction":"upper"})"),
                  {"'counter:c'", "'tolerence'"});
  // An absent tolerance still takes the file's default.
  const GateBaseline ok = bench::parse_baseline(
      obs::parse_json(file(R"("counter:c":{"value":3,"direction":"lower"})")));
  EXPECT_DOUBLE_EQ(ok.metrics.at("counter:c").tolerance, 0.25);
  EXPECT_EQ(ok.metrics.at("counter:c").direction, GateDirection::Lower);
}

/// How a key reads each hostile value.
enum class GateKey { Name, Schema, Tolerance, Value, Direction, Metrics };

TEST(BenchGate, EveryMutatedBaselineKeyIsAcceptedOrRejectedByName) {
  obs::MetricsRegistry registry;
  registry.counter("slrh.maps").add(100);
  registry.gauge("bench.parallel_speedup").set(2.0);
  registry.gauge("bench.run_seconds").set(0.5);
  std::ostringstream os;
  bench::write_baseline(os, bench::make_baseline("b", registry.snapshot(), 0.25, 1.0));
  const obs::JsonValue root = obs::parse_json(os.str());

  const std::vector<std::pair<std::string, std::optional<obs::JsonValue>>> hostile = {
      {"absent", std::nullopt},
      {"-1", obs::JsonValue(-1.0)},
      {"0", obs::JsonValue(0.0)},
      {"1", obs::JsonValue(1.0)},
      {"1.5", obs::JsonValue(1.5)},
      {"1e300", obs::JsonValue(1e300)},
      {"\"x\"", obs::JsonValue(std::string("x"))},
      {"\"uper\"", obs::JsonValue(std::string("uper"))},
      {"\"lower\"", obs::JsonValue(std::string("lower"))},
      {"true", obs::JsonValue(true)},
      {"null", obs::JsonValue()},
      {"[1.5]", obs::JsonValue(obs::JsonValue::Array{obs::JsonValue(1.5)})},
      {"{}", obs::JsonValue(obs::JsonValue::Object{})},
  };
  const auto must_reject = [](GateKey type, const std::string& label,
                              const std::optional<obs::JsonValue>& v) {
    switch (type) {
      case GateKey::Name: return !v || !v->is_string();
      case GateKey::Schema: return label != "1";
      case GateKey::Tolerance:
        return v && (!v->is_number() || v->as_double() < 0.0);
      case GateKey::Value: return !v || !v->is_number();
      case GateKey::Direction: return label != "\"lower\"";
      case GateKey::Metrics: return !v || !v->is_object();
    }
    return true;
  };
  // Mutate `key` of `record` in place of the original and parse the result.
  const auto sweep = [&](const std::string& metric, const std::string& key,
                         GateKey type) {
    for (const auto& [label, value] : hostile) {
      obs::JsonValue::Object top = root.as_object();
      obs::JsonValue::Object* record = &top;
      obs::JsonValue::Object metrics;
      obs::JsonValue::Object entry;
      if (!metric.empty()) {
        metrics = top.at("metrics").as_object();
        entry = metrics.at(metric).as_object();
        record = &entry;
      }
      if (value) {
        (*record)[key] = *value;
      } else {
        record->erase(key);
      }
      if (!metric.empty()) {
        metrics[metric] = obs::JsonValue(entry);
        top["metrics"] = obs::JsonValue(metrics);
      }
      const obs::JsonValue mutated(top);
      const bool reject = must_reject(type, label, value);
      try {
        const GateBaseline parsed = bench::parse_baseline(mutated);
        EXPECT_FALSE(reject) << "accepted " << metric << " '" << key << "' = " << label;
        if (type == GateKey::Tolerance && value) {
          const double got = metric.empty() ? parsed.default_tolerance
                                            : parsed.metrics.at(metric).tolerance;
          EXPECT_EQ(got, value->as_double()) << key << " = " << label;
        }
      } catch (const PreconditionError& e) {
        const std::string what = e.what();
        EXPECT_TRUE(reject) << "rejected " << metric << " '" << key << "' = " << label
                            << ": " << what;
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
        if (!metric.empty()) {
          EXPECT_NE(what.find("'" + metric + "'"), std::string::npos) << what;
        }
      }
    }
  };
  const std::map<std::string, GateKey> top_keys = {
      {"bench", GateKey::Name},
      {"gate_schema", GateKey::Schema},
      {"default_tolerance", GateKey::Tolerance},
      {"metrics", GateKey::Metrics},
  };
  EXPECT_EQ(root.as_object().size(), top_keys.size()) << "a top-level key is unswept";
  for (const auto& [key, type] : top_keys) sweep("", key, type);
  const std::map<std::string, GateKey> metric_keys = {
      {"value", GateKey::Value},
      {"tolerance", GateKey::Tolerance},
      {"direction", GateKey::Direction},
  };
  for (const auto& [metric, entry] : root.find("metrics")->as_object()) {
    EXPECT_EQ(entry.as_object().size(), metric_keys.size()) << metric;
    for (const auto& [key, type] : metric_keys) sweep(metric, key, type);
  }
}

// --- whole-string number flags -------------------------------------------------

TEST(BenchFlags, NumbersParseOnlyAsAWhole) {
  EXPECT_EQ(parse_number_text("0.5"), 0.5);
  EXPECT_EQ(parse_number_text("1e-3"), 1e-3);
  EXPECT_EQ(parse_number_text("-2"), -2.0);
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "0.5 ", "inf", "nan", "1e999"}) {
    EXPECT_EQ(parse_number_text(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parse_int_text("4"), 4);
  EXPECT_EQ(parse_int_text("-3"), -3);
  for (const char* bad : {"", "abc", "4x", "4.0", " 4", "99999999999999999999"}) {
    EXPECT_EQ(parse_int_text(bad), std::nullopt) << "'" << bad << "'";
  }
}

/// Run handle_bench_flags over `args` (argv[0] included); returns its exit
/// code (nullopt to continue) and what it printed to stderr.
std::pair<std::optional<int>, std::string> bench_flags_exit(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  testing::internal::CaptureStderr();
  const std::optional<int> code = bench::handle_bench_flags(argc, argv.data());
  return {code, testing::internal::GetCapturedStderr()};
}

TEST(BenchFlags, MalformedJobsExitTwoNamingTheFlag) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"bench", "--jobs", "abc"},
                                             {"bench", "--jobs=4x"},
                                             {"bench", "--jobs="},
                                             {"bench", "--jobs", "-1"},
                                             {"bench", "--jobs"}}) {
    const auto [code, err] = bench_flags_exit(args);
    EXPECT_EQ(code, 2) << args.back();
    EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
  }
  EXPECT_EQ(bench::bench_flags().jobs, 0u);  // none of them was taken
}

}  // namespace
