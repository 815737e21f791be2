#pragma once
// Minimal declarative command-line parser for the CLI tools and examples.
//
// Supports --name value, --name=value, --flag (boolean), positional
// arguments, defaults, and generated --help text. Deliberately tiny: no
// subcommands, no repeated options.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/contract.hpp"

namespace ahg {

/// The whole of `text` as a decimal integer; nullopt for anything else: an
/// empty string, whitespace, trailing characters ("4x"), or a value that
/// overflows int64.
std::optional<std::int64_t> parse_int_text(std::string_view text);

/// The whole of `text` as a finite number (decimal or exponent form);
/// nullopt for anything else ("abc", "0.5x", "inf", "nan", overflow).
std::optional<double> parse_number_text(std::string_view text);

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declare options (call before parse()).
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  void add_int(const std::string& name, std::int64_t default_value, std::string help);
  void add_double(const std::string& name, double default_value, std::string help);
  void add_flag(const std::string& name, std::string help);
  void add_positional(const std::string& name, std::string help,
                      std::optional<std::string> default_value = std::nullopt);

  /// Parse argv. Returns false (after printing usage) on --help or error;
  /// the caller should exit. error() tells the two cases apart.
  bool parse(int argc, const char* const* argv);

  bool error() const noexcept { return error_; }

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  std::string usage() const;

 private:
  enum class Kind { String, Int, Double, Flag };
  struct Option {
    Kind kind;
    std::string help;
    std::string value;  // current (default until parsed)
    bool flag_set = false;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::optional<std::string> value;
  };

  const Option& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<Positional> positionals_;
  bool error_ = false;
};

}  // namespace ahg
