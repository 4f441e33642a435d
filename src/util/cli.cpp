#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace imc {

namespace {

[[nodiscard]] bool parse_bool(const std::string& text) {
  if (text.empty() || text == "1" || text == "true" || text == "yes" ||
      text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  throw std::invalid_argument("cannot parse boolean option value: " + text);
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      options_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself an option,
    // otherwise a bare boolean flag.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      options_[std::string(body)] = argv[++i];
    } else {
      options_[std::string(body)] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.contains(name);
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return std::stoll(it->second);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return std::stod(it->second);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return parse_bool(it->second);
}

std::optional<std::string> ArgParser::first_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [name, value] : options_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return std::nullopt;
}

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const auto text = env_string(name);
  return text ? std::stoll(*text) : fallback;
}

double env_double(const char* name, double fallback) {
  const auto text = env_string(name);
  return text ? std::stod(*text) : fallback;
}

}  // namespace imc
