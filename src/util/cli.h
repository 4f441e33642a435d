// Tiny command-line/environment option parser for examples and benches.
//
// Accepts `--name=value`, `--name value` and boolean `--flag` forms, plus
// environment-variable fallbacks so the benchmark harness can be tuned
// without arguments (e.g. IMC_BENCH_SCALE). Any `--name` is accepted;
// a front end that wants misspelt or retired flags rejected checks them
// against its own list with first_unknown().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace imc {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if `--name` or `--name=...` was passed.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The first passed option (in name order) that is not in `known`, or
  /// nullopt when every passed option is known.
  [[nodiscard]] std::optional<std::string> first_unknown(
      std::span<const std::string_view> known) const;

  /// Non-option (positional) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Environment lookup helpers (empty/unset → fallback; parse errors throw).
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);
[[nodiscard]] double env_double(const char* name, double fallback);
[[nodiscard]] std::optional<std::string> env_string(const char* name);

}  // namespace imc
