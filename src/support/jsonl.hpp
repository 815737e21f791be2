#pragma once
// Minimal JSON building and parsing for the observability layer (ahg::obs).
//
// JsonWriter builds one JSON value into a string with explicit begin/end
// calls — enough for event and metric serialization without pulling in a
// third-party library. JsonValue + parse_json() is the matching reader used
// by trace_inspect and the round-trip tests. One JSON object per line
// ("JSONL") is the on-disk format for decision traces: append-friendly,
// greppable, and streamable.
//
// The parser accepts the full JSON grammar (RFC 8259) with the usual
// practical limits: numbers are stored as double, \uXXXX escapes outside the
// BMP (surrogate pairs) are combined, and input depth is bounded to keep
// malformed files from recursing away the stack.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ahg::obs {

/// Incremental writer for a single JSON value (normally one JSONL record).
/// Commas and key/value separators are inserted automatically; nesting is
/// tracked so str() can assert the value is complete.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Write the key of the next member (inside an object only).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(unsigned number) {
    return value(static_cast<std::uint64_t>(number));
  }
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The completed JSON text. Requires all begin_*() calls to be closed.
  const std::string& str() const;

  /// Escape a string body per RFC 8259 (no surrounding quotes).
  static std::string escape(std::string_view text);

 private:
  void before_value();

  std::string out_;
  /// Nesting stack: 'o' = object (expecting key), 'v' = object (expecting
  /// value after key), 'a' = array.
  std::string stack_;
  /// Whether the current container already holds a member.
  std::vector<bool> has_member_;
};

/// Parsed JSON value: a tagged union over the seven JSON shapes.
class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::Number), number_(n) {}
  explicit JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  explicit JsonValue(Array a) : kind_(Kind::Array), array_(std::move(a)) {}
  explicit JsonValue(Object o) : kind_(Kind::Object), object_(std::move(o)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< as_double rounded; requires is_number
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(std::string_view name) const noexcept;

  /// Convenience typed lookups with defaults (for flat event records).
  double get_double(std::string_view name, double fallback = 0.0) const noexcept;
  std::int64_t get_int(std::string_view name, std::int64_t fallback = 0) const noexcept;
  std::string get_string(std::string_view name, std::string fallback = "") const;
  bool get_bool(std::string_view name, bool fallback = false) const noexcept;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parse one complete JSON document. Throws PreconditionError on malformed
/// input (with byte offset in the message).
JsonValue parse_json(std::string_view text);

/// Parse a JSONL stream: one JSON value per non-empty line. A malformed
/// line throws a PreconditionError that names it ("line N: ...").
std::vector<JsonValue> parse_jsonl(std::istream& in);

/// Read a JSONL stream record by record: `visit` receives each parsed
/// non-blank line. A parse error, or a PreconditionError thrown by `visit`,
/// is rethrown as a PreconditionError prefixed with "line N: ".
void for_each_jsonl(std::istream& in,
                    const std::function<void(const JsonValue&)>& visit);

// --- strict record fields ----------------------------------------------------
//
// Typed member lookups for records read back from disk (frames, spans). An
// absent key yields the fallback, so recordings that predate a field still
// load; a present key of the wrong type throws a PreconditionError naming
// the key. read_int also rejects a non-integral number or one outside
// [lo, hi]; read_count is read_int over [0, 2^64).

double read_number(const JsonValue& record, std::string_view key,
                   double fallback = 0.0);
std::int64_t read_int(const JsonValue& record, std::string_view key,
                      std::int64_t fallback = 0,
                      std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                      std::int64_t hi = std::numeric_limits<std::int64_t>::max());
std::uint64_t read_count(const JsonValue& record, std::string_view key,
                         std::uint64_t fallback = 0);
std::string read_string(const JsonValue& record, std::string_view key,
                        std::string fallback = {});
/// The array under `key` (empty when absent), each element checked like
/// read_number / read_int.
std::vector<double> read_numbers(const JsonValue& record, std::string_view key);
std::vector<std::int64_t> read_ints(const JsonValue& record, std::string_view key);

}  // namespace ahg::obs
