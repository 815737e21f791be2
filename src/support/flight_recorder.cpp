#include "support/flight_recorder.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "support/contract.hpp"
#include "support/jsonl.hpp"

namespace ahg::obs {

FlightRecorder::FlightRecorder(Options options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  AHG_EXPECTS_MSG(options_.max_frames > 0 && options_.max_spans > 0,
                  "flight recorder rings must hold at least one entry");
  frames_.reserve(std::min<std::size_t>(options_.max_frames, 1024));
  spans_.reserve(std::min<std::size_t>(options_.max_spans, 1024));
}

double FlightRecorder::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

void FlightRecorder::record(const Frame& frame) {
  std::lock_guard lock(mutex_);
  ++frames_recorded_;
  Frame* slot = nullptr;
  if (frames_.size() < options_.max_frames) {
    frames_.push_back(frame);
    slot = &frames_.back();
  } else {
    // Copy-assign so the slot's vectors and string keep their capacity —
    // a wrapped ring records without touching the allocator.
    frames_[frames_head_] = frame;
    slot = &frames_[frames_head_];
    frames_head_ = (frames_head_ + 1) % options_.max_frames;
  }
  slot->departures = churn_departures_;
  slot->orphaned = churn_orphaned_;
  slot->invalidated = churn_invalidated_;
  slot->energy_forfeited = churn_energy_forfeited_;
}

void FlightRecorder::add_span(std::string_view name, double start_seconds,
                              double duration_seconds, Cycles clock,
                              MachineId machine) {
  Span span{std::string(name), start_seconds, duration_seconds, clock, machine};
  std::lock_guard lock(mutex_);
  ++spans_recorded_;
  if (spans_.size() < options_.max_spans) {
    spans_.push_back(std::move(span));
  } else {
    spans_[spans_head_] = std::move(span);
    spans_head_ = (spans_head_ + 1) % options_.max_spans;
  }
}

void FlightRecorder::set_churn_context(std::uint64_t departures,
                                       std::uint64_t orphaned,
                                       std::uint64_t invalidated,
                                       double energy_forfeited) {
  std::lock_guard lock(mutex_);
  churn_departures_ = departures;
  churn_orphaned_ = orphaned;
  churn_invalidated_ = invalidated;
  churn_energy_forfeited_ = energy_forfeited;
}

std::vector<Frame> FlightRecorder::frames() const {
  std::lock_guard lock(mutex_);
  std::vector<Frame> out;
  out.reserve(frames_.size());
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    out.push_back(frames_[(frames_head_ + i) % frames_.size()]);
  }
  return out;
}

std::vector<Span> FlightRecorder::spans() const {
  std::lock_guard lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out.push_back(spans_[(spans_head_ + i) % spans_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::frames_recorded() const {
  std::lock_guard lock(mutex_);
  return frames_recorded_;
}

std::uint64_t FlightRecorder::frames_dropped() const {
  std::lock_guard lock(mutex_);
  return frames_recorded_ - frames_.size();
}

std::uint64_t FlightRecorder::spans_recorded() const {
  std::lock_guard lock(mutex_);
  return spans_recorded_;
}

std::uint64_t FlightRecorder::spans_dropped() const {
  std::lock_guard lock(mutex_);
  return spans_recorded_ - spans_.size();
}

std::size_t FlightRecorder::memory_bound_bytes(
    std::size_t num_machines) const noexcept {
  // Per frame: the struct itself plus one double + one Cycles per machine.
  // Per span: the struct plus a generous 64-byte name allowance. Heuristic
  // names live in SSO storage, so they carry no extra heap.
  const std::size_t per_frame =
      sizeof(Frame) + num_machines * (sizeof(double) + sizeof(Cycles));
  const std::size_t per_span = sizeof(Span) + 64;
  return options_.max_frames * per_frame + options_.max_spans * per_span;
}

void write_frame_json(std::ostream& os, const Frame& f) {
  JsonWriter json;
  json.begin_object();
  json.field("heuristic", f.heuristic)
      .field("clock", static_cast<std::int64_t>(f.clock))
      .field("wall", f.wall_seconds)
      .field("term_t100", f.term_t100)
      .field("term_tec", f.term_tec)
      .field("term_aet", f.term_aet)
      .field("objective", f.objective)
      .field("assigned", f.assigned)
      .field("t100", f.t100)
      .field("tec", f.tec)
      .field("aet", static_cast<std::int64_t>(f.aet))
      .field("pools", f.pools_built)
      .field("maps", f.maps)
      .field("pool_size", f.last_pool_size)
      .field("reused", f.pools_reused)
      .field("probes", f.probes)
      .field("pruned", f.probes_pruned)
      .field("ready", f.frontier_ready)
      .field("unreleased", f.frontier_unreleased)
      .field("pool_seconds", f.pool_build_seconds)
      .field("step_seconds", f.timestep_seconds)
      .field("departures", f.departures)
      .field("orphaned", f.orphaned)
      .field("invalidated", f.invalidated)
      .field("energy_forfeited", f.energy_forfeited);
  json.key("battery").begin_array();
  for (const double b : f.battery_fraction) json.value(b);
  json.end_array();
  json.key("busy_until").begin_array();
  for (const Cycles c : f.busy_until) json.value(static_cast<std::int64_t>(c));
  json.end_array();
  json.end_object();
  os << json.str();
}

void FlightRecorder::write_frames_jsonl(std::ostream& os) const {
  for (const Frame& frame : frames()) {
    write_frame_json(os, frame);
    os << "\n";
  }
}

Frame frame_from_json(const JsonValue& value) {
  AHG_EXPECTS_MSG(value.is_object(), "frame JSON must be an object");
  Frame f;
  f.heuristic = value.get_string("heuristic");
  f.clock = value.get_int("clock");
  f.wall_seconds = value.get_double("wall");
  f.term_t100 = value.get_double("term_t100");
  f.term_tec = value.get_double("term_tec");
  f.term_aet = value.get_double("term_aet");
  f.objective = value.get_double("objective");
  f.assigned = static_cast<std::uint64_t>(value.get_int("assigned"));
  f.t100 = static_cast<std::uint64_t>(value.get_int("t100"));
  f.tec = value.get_double("tec");
  f.aet = value.get_int("aet");
  f.pools_built = static_cast<std::uint64_t>(value.get_int("pools"));
  f.maps = static_cast<std::uint64_t>(value.get_int("maps"));
  f.last_pool_size = static_cast<std::uint64_t>(value.get_int("pool_size"));
  // Absent in pre-sweep-accelerator recordings; the getter fallbacks keep
  // old .frames.jsonl files parseable.
  f.pools_reused = static_cast<std::uint64_t>(value.get_int("reused"));
  // Absent in recordings that predate the probe counters.
  f.probes = static_cast<std::uint64_t>(value.get_int("probes"));
  f.probes_pruned = static_cast<std::uint64_t>(value.get_int("pruned"));
  f.frontier_ready = static_cast<std::uint64_t>(value.get_int("ready"));
  f.frontier_unreleased = static_cast<std::uint64_t>(value.get_int("unreleased"));
  f.pool_build_seconds = value.get_double("pool_seconds");
  f.timestep_seconds = value.get_double("step_seconds");
  f.departures = static_cast<std::uint64_t>(value.get_int("departures"));
  f.orphaned = static_cast<std::uint64_t>(value.get_int("orphaned"));
  f.invalidated = static_cast<std::uint64_t>(value.get_int("invalidated"));
  f.energy_forfeited = value.get_double("energy_forfeited");
  if (const JsonValue* battery = value.find("battery");
      battery != nullptr && battery->is_array()) {
    for (const auto& b : battery->as_array()) {
      f.battery_fraction.push_back(b.as_double());
    }
  }
  if (const JsonValue* busy = value.find("busy_until");
      busy != nullptr && busy->is_array()) {
    for (const auto& b : busy->as_array()) f.busy_until.push_back(b.as_int());
  }
  return f;
}

std::vector<Frame> read_frames_jsonl(std::istream& in) {
  std::vector<Frame> frames;
  for (const JsonValue& line : parse_jsonl(in)) {
    frames.push_back(frame_from_json(line));
  }
  return frames;
}

}  // namespace ahg::obs
