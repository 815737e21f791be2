// The on-disk readers of the obs layer reject malformed input with a
// located error: parse_jsonl names the line, and the frame (.frames.jsonl)
// and span (.spans.jsonl) readers additionally name the key whose value has
// the wrong type, is negative where a count belongs, or is not integral.
// Absent keys still read as zero so older recordings load. A per-key
// mutation sweep over a recorded frame line and a recorded span line pins
// the contract for every key the writers emit.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/slrh.hpp"
#include "support/contract.hpp"
#include "support/flight_recorder.hpp"
#include "support/jsonl.hpp"
#include "support/task_ledger.hpp"
#include "tests/scenario_fixtures.hpp"

namespace ahg {
namespace {

using obs::JsonValue;

/// Serialize a parsed value back to JSON text.
void write_value(obs::JsonWriter& json, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::Null: json.null(); break;
    case JsonValue::Kind::Bool: json.value(value.as_bool()); break;
    case JsonValue::Kind::Number: json.value(value.as_double()); break;
    case JsonValue::Kind::String: json.value(value.as_string()); break;
    case JsonValue::Kind::Array:
      json.begin_array();
      for (const JsonValue& element : value.as_array()) write_value(json, element);
      json.end_array();
      break;
    case JsonValue::Kind::Object:
      json.begin_object();
      for (const auto& [key, member] : value.as_object()) {
        json.key(key);
        write_value(json, member);
      }
      json.end_object();
      break;
  }
}

std::string to_json(const JsonValue& value) {
  obs::JsonWriter json;
  write_value(json, value);
  return json.str();
}

/// Run `read` on `text`, expecting a PreconditionError whose message holds
/// every one of `needles`.
template <typename Read>
void expect_located_error(const std::string& text, Read read,
                          const std::vector<std::string>& needles) {
  std::istringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const PreconditionError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "'" << needle << "' missing from: " << e.what();
    }
  }
}

const auto read_frames = [](std::istream& in) { return obs::read_frames_jsonl(in); };
const auto read_spans = [](std::istream& in) { return obs::read_task_spans_jsonl(in); };

TEST(JsonlReaders, ParseErrorNamesItsLine) {
  expect_located_error("{\"a\":1}\n\n{\"a\":\n",
                       [](std::istream& in) { return obs::parse_jsonl(in); },
                       {"line 3", "JSON parse error"});
}

TEST(JsonlReaders, FrameKeyOfWrongTypeIsRejected) {
  expect_located_error("{\"clock\":10}\n{\"clock\":\"ten\"}\n", read_frames,
                       {"line 2", "'clock'"});
  expect_located_error("{\"heuristic\":7}\n", read_frames, {"line 1", "'heuristic'"});
  expect_located_error("{\"battery\":0.5}\n", read_frames, {"line 1", "'battery'"});
  expect_located_error("{\"battery\":[1.0,\"full\"]}\n", read_frames,
                       {"line 1", "'battery'"});
  expect_located_error("{\"tec\":null}\n", read_frames, {"line 1", "'tec'"});
}

TEST(JsonlReaders, FrameNegativeCountIsRejected) {
  expect_located_error("{\"pools\":-1}\n", read_frames, {"line 1", "'pools'"});
  expect_located_error("{\"maps\":3}\n{\"assigned\":-4}\n", read_frames,
                       {"line 2", "'assigned'"});
}

TEST(JsonlReaders, FrameNonIntegralCountIsRejected) {
  expect_located_error("{\"maps\":1.5}\n", read_frames, {"line 1", "'maps'"});
  expect_located_error("{\"clock\":10.25}\n", read_frames, {"line 1", "'clock'"});
  expect_located_error("{\"busy_until\":[10,20.5]}\n", read_frames,
                       {"line 1", "'busy_until'"});
  // 2^64 does not fit a count.
  expect_located_error("{\"probes\":18446744073709551616}\n", read_frames,
                       {"line 1", "'probes'"});
}

TEST(JsonlReaders, FrameAbsentKeysReadAsZero) {
  std::istringstream in("{\"heuristic\":\"SLRH-1\",\"clock\":10,\"maps\":2.0}\n");
  const auto frames = obs::read_frames_jsonl(in);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].heuristic, "SLRH-1");
  EXPECT_EQ(frames[0].clock, 10);
  EXPECT_EQ(frames[0].maps, 2u);  // integral, though written as a double
  EXPECT_EQ(frames[0].pools_built, 0u);
  EXPECT_EQ(frames[0].pools_reused, 0u);
  EXPECT_EQ(frames[0].probes, 0u);
  EXPECT_EQ(frames[0].tec, 0.0);
  EXPECT_TRUE(frames[0].battery_fraction.empty());
  EXPECT_TRUE(frames[0].busy_until.empty());
}

TEST(JsonlReaders, SpanMalformedKeysAreRejected) {
  expect_located_error("{\"task\":1,\"kind\":3}\n", read_spans, {"line 1", "'kind'"});
  expect_located_error("{\"task\":1}\n{\"task\":2,\"attempt\":-1}\n", read_spans,
                       {"line 2", "'attempt'"});
  expect_located_error("{\"task\":1.5}\n", read_spans, {"line 1", "'task'"});
  expect_located_error("{\"task\":1,\"start\":2.5}\n", read_spans,
                       {"line 1", "'start'"});
  // Task and machine ids fit their 32-bit types; -1 is the "none" id.
  expect_located_error("{\"task\":4294967296}\n", read_spans, {"line 1", "'task'"});
  expect_located_error("{\"task\":1,\"machine\":-2}\n", read_spans,
                       {"line 1", "'machine'"});
  expect_located_error("[1,2]\n", read_spans, {"line 1", "object"});
}

TEST(JsonlReaders, SpanAbsentKeysKeepTheirDefaults) {
  std::istringstream in("{\"task\":3,\"kind\":\"exec\",\"start\":5,\"finish\":9}\n");
  const auto spans = obs::read_task_spans_jsonl(in);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].task, 3);
  EXPECT_EQ(spans[0].parent, kInvalidTask);
  EXPECT_EQ(spans[0].machine, kInvalidMachine);
  EXPECT_EQ(spans[0].version, -1);
  EXPECT_EQ(spans[0].attempt, 0u);
  EXPECT_EQ(spans[0].start, 5);
  EXPECT_EQ(spans[0].finish, 9);
}

// --- per-key mutation sweep ---------------------------------------------------

enum class KeyType { Number, Int, Count, Id, String, NumberArray, IntArray };

/// Replace each key of `line` by each hostile value, as line 2 after the
/// unchanged line 1. The reader must either accept the mutant or reject it
/// with an error naming line 2 and the key; a mutant the key's type cannot
/// hold must be rejected.
template <typename Read>
void sweep_keys(const std::string& line, const std::map<std::string, KeyType>& keys,
                Read read) {
  const JsonValue record = obs::parse_json(line);
  ASSERT_TRUE(record.is_object());
  const std::vector<std::pair<std::string, JsonValue>> hostile = {
      {"-1", JsonValue(-1.0)},
      {"-2", JsonValue(-2.0)},
      {"1.5", JsonValue(1.5)},
      {"1e300", JsonValue(1e300)},
      {"2^64", JsonValue(18446744073709551616.0)},
      {"\"x\"", JsonValue(std::string("x"))},
      {"true", JsonValue(true)},
      {"null", JsonValue()},
      {"[1.5]", JsonValue(JsonValue::Array{JsonValue(1.5)})},
      {"{}", JsonValue(JsonValue::Object{})},
  };
  std::size_t rejected = 0;
  for (const auto& [key, member] : record.as_object()) {
    const auto type_it = keys.find(key);
    ASSERT_NE(type_it, keys.end()) << "untyped key '" << key << "'";
    const KeyType type = type_it->second;
    for (const auto& [label, value] : hostile) {
      JsonValue::Object mutated = record.as_object();
      mutated[key] = value;
      const std::string text = line + "\n" + to_json(JsonValue(mutated)) + "\n";
      const bool is_number = value.is_number();
      const bool integral = is_number && label != "1.5";
      const bool must_reject =
          (type == KeyType::Number && !is_number) ||
          (type == KeyType::Int && (!integral || label == "1e300" || label == "2^64")) ||
          (type == KeyType::Count && (!integral || label == "-1" || label == "-2" ||
                                      label == "1e300" || label == "2^64")) ||
          (type == KeyType::Id && (!integral || label == "-2" || label == "1e300" ||
                                   label == "2^64")) ||
          (type == KeyType::String && !value.is_string()) ||
          (type == KeyType::NumberArray && !value.is_array()) ||
          (type == KeyType::IntArray && !value.is_array()) ||
          (type == KeyType::IntArray && label == "[1.5]");
      std::istringstream in(text);
      try {
        read(in);
        EXPECT_FALSE(must_reject) << "accepted '" << key << "' = " << label;
      } catch (const PreconditionError& e) {
        ++rejected;
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(JsonlReaders, EveryMutatedFrameKeyIsAcceptedOrRejectedWithItsLine) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 24);
  obs::FlightRecorder recorder(obs::FlightRecorder::dense_options());
  core::SlrhParams params;
  params.recorder = &recorder;
  core::run_slrh(scenario, params);
  std::ostringstream os;
  recorder.write_frames_jsonl(os);
  std::istringstream frames(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(frames, line));

  const std::map<std::string, KeyType> keys = {
      {"heuristic", KeyType::String},     {"clock", KeyType::Int},
      {"wall", KeyType::Number},          {"term_t100", KeyType::Number},
      {"term_tec", KeyType::Number},      {"term_aet", KeyType::Number},
      {"objective", KeyType::Number},     {"assigned", KeyType::Count},
      {"t100", KeyType::Count},           {"tec", KeyType::Number},
      {"aet", KeyType::Int},              {"pools", KeyType::Count},
      {"maps", KeyType::Count},           {"pool_size", KeyType::Count},
      {"reused", KeyType::Count},         {"probes", KeyType::Count},
      {"pruned", KeyType::Count},         {"ready", KeyType::Count},
      {"unreleased", KeyType::Count},     {"pool_seconds", KeyType::Number},
      {"step_seconds", KeyType::Number},  {"departures", KeyType::Count},
      {"orphaned", KeyType::Count},       {"invalidated", KeyType::Count},
      {"energy_forfeited", KeyType::Number},
      {"battery", KeyType::NumberArray},  {"busy_until", KeyType::IntArray},
  };
  EXPECT_EQ(obs::parse_json(line).as_object().size(), keys.size())
      << "a frame key is missing from the sweep";
  sweep_keys(line, keys, read_frames);
}

TEST(JsonlReaders, EveryMutatedSpanKeyIsAcceptedOrRejectedWithItsLine) {
  const auto scenario = test::small_suite_scenario(sim::GridCase::A, 64, 4242);
  obs::TaskLedger ledger(scenario.num_tasks());
  core::SlrhParams params;
  params.variant = core::SlrhVariant::V3;
  params.weights = core::Weights::make(0.6, 0.3);
  params.ledger = &ledger;
  core::run_slrh(scenario, params);
  std::ostringstream os;
  ledger.write_spans_jsonl(os);
  // An input span carries every key the writer emits.
  std::istringstream spans(os.str());
  std::string line;
  bool found = false;
  while (std::getline(spans, line)) {
    if (line.find("\"kind\":\"input\"") != std::string::npos) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no input span recorded";

  const std::map<std::string, KeyType> keys = {
      {"task", KeyType::Id},      {"kind", KeyType::String},
      {"parent", KeyType::Id},    {"machine", KeyType::Id},
      {"version", KeyType::String}, {"attempt", KeyType::Count},
      {"start", KeyType::Int},    {"finish", KeyType::Int},
  };
  EXPECT_EQ(obs::parse_json(line).as_object().size(), keys.size())
      << "a span key is missing from the sweep";
  sweep_keys(line, keys, read_spans);
}

}  // namespace
}  // namespace ahg
