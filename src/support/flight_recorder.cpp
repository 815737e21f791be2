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
  // Keys absent from older recordings (reused, probes, pruned, ...) read as
  // zero; a present key must carry its type.
  Frame f;
  f.heuristic = read_string(value, "heuristic");
  f.clock = read_int(value, "clock");
  f.wall_seconds = read_number(value, "wall");
  f.term_t100 = read_number(value, "term_t100");
  f.term_tec = read_number(value, "term_tec");
  f.term_aet = read_number(value, "term_aet");
  f.objective = read_number(value, "objective");
  f.assigned = read_count(value, "assigned");
  f.t100 = read_count(value, "t100");
  f.tec = read_number(value, "tec");
  f.aet = read_int(value, "aet");
  f.pools_built = read_count(value, "pools");
  f.maps = read_count(value, "maps");
  f.last_pool_size = read_count(value, "pool_size");
  f.pools_reused = read_count(value, "reused");
  f.probes = read_count(value, "probes");
  f.probes_pruned = read_count(value, "pruned");
  f.frontier_ready = read_count(value, "ready");
  f.frontier_unreleased = read_count(value, "unreleased");
  f.pool_build_seconds = read_number(value, "pool_seconds");
  f.timestep_seconds = read_number(value, "step_seconds");
  f.departures = read_count(value, "departures");
  f.orphaned = read_count(value, "orphaned");
  f.invalidated = read_count(value, "invalidated");
  f.energy_forfeited = read_number(value, "energy_forfeited");
  f.battery_fraction = read_numbers(value, "battery");
  f.busy_until = read_ints(value, "busy_until");
  return f;
}

std::vector<Frame> read_frames_jsonl(std::istream& in) {
  std::vector<Frame> frames;
  for_each_jsonl(in, [&](const JsonValue& line) {
    frames.push_back(frame_from_json(line));
  });
  return frames;
}

}  // namespace ahg::obs
