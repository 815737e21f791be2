#include "support/args.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace ahg {

std::optional<std::int64_t> parse_int_text(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_number_text(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return std::nullopt;
  return value;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_string(const std::string& name, std::string default_value,
                           std::string help) {
  AHG_EXPECTS_MSG(!options_.contains(name), "duplicate option");
  options_.emplace(name, Option{Kind::String, std::move(help), std::move(default_value)});
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        std::string help) {
  AHG_EXPECTS_MSG(!options_.contains(name), "duplicate option");
  options_.emplace(name,
                   Option{Kind::Int, std::move(help), std::to_string(default_value)});
}

void ArgParser::add_double(const std::string& name, double default_value,
                           std::string help) {
  AHG_EXPECTS_MSG(!options_.contains(name), "duplicate option");
  std::ostringstream oss;
  oss << default_value;
  options_.emplace(name, Option{Kind::Double, std::move(help), oss.str()});
}

void ArgParser::add_flag(const std::string& name, std::string help) {
  AHG_EXPECTS_MSG(!options_.contains(name), "duplicate option");
  options_.emplace(name, Option{Kind::Flag, std::move(help), "false"});
}

void ArgParser::add_positional(const std::string& name, std::string help,
                               std::optional<std::string> default_value) {
  positionals_.push_back(Positional{name, std::move(help), std::move(default_value)});
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::cout << usage();
      return false;
    }
    if (token.rfind("--", 0) == 0) {
      std::string name = token.substr(2);
      std::string value;
      bool has_value = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_value = true;
      }
      const auto it = options_.find(name);
      if (it == options_.end()) {
        std::cerr << program_ << ": unknown option --" << name << "\n" << usage();
        error_ = true;
        return false;
      }
      Option& opt = it->second;
      if (opt.kind == Kind::Flag) {
        if (has_value) {
          std::cerr << program_ << ": flag --" << name << " takes no value\n";
          error_ = true;
          return false;
        }
        opt.value = "true";
        opt.flag_set = true;
        continue;
      }
      if (!has_value) {
        if (i + 1 >= argc) {
          std::cerr << program_ << ": option --" << name << " needs a value\n";
          error_ = true;
          return false;
        }
        value = argv[++i];
      }
      if (opt.kind == Kind::Int) {
        if (!parse_int_text(value)) {
          std::cerr << program_ << ": --" << name << " expects an integer, got '"
                    << value << "'\n";
          error_ = true;
          return false;
        }
      } else if (opt.kind == Kind::Double) {
        if (!parse_number_text(value)) {
          std::cerr << program_ << ": --" << name << " expects a number, got '"
                    << value << "'\n";
          error_ = true;
          return false;
        }
      }
      opt.value = value;
      continue;
    }
    if (next_positional >= positionals_.size()) {
      std::cerr << program_ << ": unexpected argument '" << token << "'\n" << usage();
      error_ = true;
      return false;
    }
    positionals_[next_positional++].value = token;
  }
  for (const auto& pos : positionals_) {
    if (!pos.value.has_value()) {
      std::cerr << program_ << ": missing argument <" << pos.name << ">\n" << usage();
      error_ = true;
      return false;
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::find(const std::string& name, Kind kind) const {
  // Positionals are exposed through get_string too.
  const auto it = options_.find(name);
  if (it == options_.end()) {
    for (const auto& pos : positionals_) {
      if (pos.name == name) {
        AHG_EXPECTS_MSG(kind == Kind::String, "positionals are strings");
        static thread_local Option scratch{Kind::String, "", ""};
        scratch.value = pos.value.value_or("");
        return scratch;
      }
    }
    throw PreconditionError("unknown option: " + name);
  }
  AHG_EXPECTS_MSG(it->second.kind == kind, "option accessed with the wrong type");
  return it->second;
}

std::string ArgParser::get_string(const std::string& name) const {
  return find(name, Kind::String).value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::Int).value.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::Double).value.c_str(), nullptr);
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name, Kind::Flag).value == "true";
}

std::string ArgParser::usage() const {
  std::ostringstream oss;
  oss << program_ << " — " << description_ << "\n\nusage: " << program_;
  for (const auto& pos : positionals_) {
    oss << (pos.value.has_value() ? " [" : " <") << pos.name
        << (pos.value.has_value() ? "]" : ">");
  }
  if (!options_.empty()) oss << " [options]";
  oss << "\n";
  if (!positionals_.empty()) {
    oss << "\narguments:\n";
    for (const auto& pos : positionals_) {
      oss << "  " << pos.name << "  " << pos.help << "\n";
    }
  }
  if (!options_.empty()) {
    oss << "\noptions:\n";
    for (const auto& [name, opt] : options_) {
      oss << "  --" << name;
      if (opt.kind != Kind::Flag) oss << " <" << opt.value << ">";
      oss << "  " << opt.help << "\n";
    }
  }
  return oss.str();
}

}  // namespace ahg
