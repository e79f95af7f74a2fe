#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pmx {

/// Key=value configuration bag used by the bench harnesses and examples:
/// parses `key=value` tokens (command-line style). Typed getters validate
/// on access; unread_keys() supports strict CLI parsing.
class Config {
 public:
  Config() = default;

  /// Parse argv-style tokens of the form key=value. Tokens without '=' are
  /// rejected with std::runtime_error.
  static Config from_args(const std::vector<std::string>& args);
  /// Parse a main()'s argument vector. Accepts `key=value`, `--key=value`,
  /// `--key value` and bare `--flag` (stored as "true"). Anything else is
  /// rejected with std::runtime_error.
  static Config from_cli(int argc, char** argv);

  void set(const std::string& key, const std::string& value);
  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters: return the value or `fallback`; throw
  /// std::runtime_error when the stored text does not parse as the type.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Accepts true/false/1/0/yes/no (case-sensitive).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Comma-separated list (sweep axes, e.g. policies=timeout:200,lru:12).
  /// Items are trimmed; empty items are dropped; an all-empty value yields
  /// an empty list, an unset key yields `fallback`.
  [[nodiscard]] std::vector<std::string> get_csv(
      const std::string& key, const std::vector<std::string>& fallback) const;

  /// Keys that were set but never read through a getter -- catches typos in
  /// benchmark invocations.
  [[nodiscard]] std::vector<std::string> unread_keys() const;

  /// Strict-CLI guard: call after every option has been read. If any key
  /// was set but never consumed by a getter (a typo'd or unknown option),
  /// prints them to stderr prefixed with `context` and exits with status 2.
  void fail_unread(const std::string& context) const;

  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  [[nodiscard]] std::optional<std::string> lookup(
      const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace pmx
