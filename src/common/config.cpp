#include "common/config.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace pmx {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* type) {
  throw std::runtime_error("config key '" + key + "': cannot parse '" +
                           value + "' as " + type);
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return "";
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

Config Config::from_args(const std::vector<std::string>& args) {
  Config config;
  for (const auto& arg : args) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("expected key=value, got '" + arg + "'");
    }
    config.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return config;
}

Config Config::from_cli(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.starts_with("--")) {
      arg.erase(0, 2);
    }
    if (arg.empty()) {
      throw std::runtime_error("empty command-line option");
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (eq == 0) {
        throw std::runtime_error("expected key=value, got '" +
                                 std::string(argv[i]) + "'");
      }
      config.set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--key value` when a value token follows, bare `--flag` otherwise.
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      config.set(arg, argv[++i]);
    } else {
      config.set(arg, "true");
    }
  }
  return config;
}

void Config::fail_unread(const std::string& context) const {
  const auto unread = unread_keys();
  if (unread.empty()) {
    return;
  }
  for (const auto& key : unread) {
    std::cerr << context << ": unknown option '" << key << "'\n";
  }
  std::cerr << context << ": aborting (typo'd options would silently fall "
            << "back to defaults)\n";
  std::exit(2);
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
  read_[key] = false;
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::optional<std::string> Config::lookup(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return std::nullopt;
  }
  read_[key] = true;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return lookup(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto value = lookup(key);
  if (!value) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(*value, &pos);
    if (pos != value->size()) {
      bad_value(key, *value, "int");
    }
    return parsed;
  } catch (const std::invalid_argument&) {
    bad_value(key, *value, "int");
  } catch (const std::out_of_range&) {
    bad_value(key, *value, "int");
  }
}

std::uint64_t Config::get_uint(const std::string& key,
                               std::uint64_t fallback) const {
  const auto value = lookup(key);
  if (!value) {
    return fallback;
  }
  try {
    if (!value->empty() && (*value)[0] == '-') {
      bad_value(key, *value, "uint");
    }
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(*value, &pos);
    if (pos != value->size()) {
      bad_value(key, *value, "uint");
    }
    return parsed;
  } catch (const std::invalid_argument&) {
    bad_value(key, *value, "uint");
  } catch (const std::out_of_range&) {
    bad_value(key, *value, "uint");
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto value = lookup(key);
  if (!value) {
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*value, &pos);
    if (pos != value->size()) {
      bad_value(key, *value, "double");
    }
    return parsed;
  } catch (const std::invalid_argument&) {
    bad_value(key, *value, "double");
  } catch (const std::out_of_range&) {
    bad_value(key, *value, "double");
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto value = lookup(key);
  if (!value) {
    return fallback;
  }
  if (*value == "true" || *value == "1" || *value == "yes") {
    return true;
  }
  if (*value == "false" || *value == "0" || *value == "no") {
    return false;
  }
  bad_value(key, *value, "bool");
}

std::vector<std::string> Config::get_csv(
    const std::string& key, const std::vector<std::string>& fallback) const {
  const auto value = lookup(key);
  if (!value) {
    return fallback;
  }
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(*value);
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, was_read] : read_) {
    if (!was_read) {
      keys.push_back(key);
    }
  }
  return keys;
}

}  // namespace pmx
