#include "src/common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace bsched {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (!arg.empty() && arg[0] == '-') {
        errors_.push_back(arg);
      } else {
        positional_.push_back(arg);
      }
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      errors_.push_back(arg);
      continue;
    }
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" if the next token is not itself a flag; else bare bool.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it != values_.end() ? it->second : def;
}

bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(text.c_str(), &end, 10);
  return !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
}

namespace {

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
}

[[noreturn]] void ExitInvalid(const std::string& name, const std::string& text, const char* what) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n", name.c_str(), text.c_str(),
               what);
  std::exit(2);
}

}  // namespace

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  int64_t value = 0;
  if (!ParseInt(it->second, &value)) {
    ExitInvalid(name, it->second, "an integer");
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  double value = 0.0;
  if (!ParseDouble(it->second, &value)) {
    ExitInvalid(name, it->second, "a number");
  }
  return value;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return def;
  }
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    return false;
  }
  ExitInvalid(name, value, "true/false, 1/0 or yes/no");
}

namespace {

// "--trace" parses as the boolean "true"; treat that (and an explicit empty
// value) as "enabled with the default path".
std::string PathOrDefault(const Flags& flags, const std::string& name, const char* def) {
  if (!flags.Has(name)) {
    return "";
  }
  const std::string value = flags.GetString(name, "");
  if (value.empty() || value == "true") {
    return def;
  }
  return value;
}

}  // namespace

ObsFlags ParseObsFlags(const Flags& flags) {
  ObsFlags obs;
  obs.trace_path = PathOrDefault(flags, "trace", "trace.json");
  obs.metrics_path = PathOrDefault(flags, "metrics", "metrics.json");
  obs.timeseries_path = PathOrDefault(flags, "timeseries", "timeseries.csv");
  if (flags.GetBool("obs", false)) {
    if (obs.trace_path.empty()) {
      obs.trace_path = "trace.json";
    }
    if (obs.metrics_path.empty()) {
      obs.metrics_path = "metrics.json";
    }
    if (obs.timeseries_path.empty()) {
      obs.timeseries_path = "timeseries.csv";
    }
  }
  // --sample-every alone implies time-series sampling at that cadence.
  if (flags.Has("sample-every")) {
    if (!ParseInt(flags.GetString("sample-every", ""), &obs.sample_every_us) ||
        obs.sample_every_us <= 0) {
      obs.error = "--sample-every must be a positive number of microseconds, got '" +
                  flags.GetString("sample-every", "") + "'";
      return obs;
    }
    if (obs.timeseries_path.empty()) {
      obs.timeseries_path = "timeseries.csv";
    }
  } else if (!obs.timeseries_path.empty()) {
    obs.sample_every_us = 100;
  }
  return obs;
}

}  // namespace bsched
