#include "faults/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace arvy::faults {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("fault spec '" + spec + "': " + why);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, sep)) out.push_back(part);
  return out;
}

// A finite decimal number spanning all of `value`; `field` names it in the
// error. No sign-prefix, whitespace, nan or inf slips through.
double parse_number(const std::string& spec, const std::string& field,
                    const std::string& value) {
  double x = 0.0;
  const char* last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, x);
  if (error != std::errc() || end != last || !std::isfinite(x)) {
    bad_spec(spec, field + ": '" + value + "' is not a finite number");
  }
  return x;
}

double parse_probability(const std::string& spec, const std::string& field,
                         const std::string& value) {
  const double p = parse_number(spec, field, value);
  if (p < 0.0 || p > 1.0) {
    bad_spec(spec, field + ": probability must be in [0, 1]");
  }
  return p;
}

// Times, durations and the other non-negative quantities.
double parse_nonnegative(const std::string& spec, const std::string& field,
                         const std::string& value) {
  const double x = parse_number(spec, field, value);
  if (x < 0.0) bad_spec(spec, field + ": must not be negative");
  return x;
}

// An unsigned decimal integer spanning all of `value` that fits in T.
template <typename T>
T parse_integer(const std::string& spec, const std::string& field,
                const std::string& value) {
  T x = 0;
  const char* last = value.data() + value.size();
  const auto [end, error] = std::from_chars(value.data(), last, x);
  if (error != std::errc() || end != last) {
    bad_spec(spec, field + ": '" + value +
                       "' is not a decimal integer in [0, " +
                       std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return x;
}

}  // namespace

bool FaultPlan::empty() const noexcept {
  return drop_find == 0.0 && drop_token == 0.0 && duplicate == 0.0 &&
         reorder == 0.0 && storms.empty() && pauses.empty() && stalls.empty();
}

FaultPlan FaultPlan::for_shard(std::uint32_t shard) const {
  if (!shards.empty() &&
      std::find(shards.begin(), shards.end(), shard) == shards.end()) {
    return {};
  }
  FaultPlan scoped = *this;
  scoped.shards.clear();
  // Golden-ratio mixing, shard+1 so shard 0 still decorrelates from the
  // unscoped plan's own stream.
  scoped.seed = seed ^ ((shard + 1ULL) * 0x9e3779b97f4a7c15ULL);
  return scoped;
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty() || spec == "none") return plan;
  for (const std::string& item : split(spec, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) bad_spec(spec, "expected key=value in '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto parts = split(value, ':');
    if (key == "drop") {
      plan.drop_find = plan.drop_token = parse_probability(spec, key, value);
    } else if (key == "dropfind") {
      plan.drop_find = parse_probability(spec, key, value);
    } else if (key == "droptoken") {
      plan.drop_token = parse_probability(spec, key, value);
    } else if (key == "dup") {
      plan.duplicate = parse_probability(spec, key, value);
    } else if (key == "reorder") {
      if (parts.empty() || parts.size() > 2) {
        bad_spec(spec, "reorder needs P[:SPIKE]");
      }
      plan.reorder = parse_probability(spec, "reorder P", parts[0]);
      if (parts.size() > 1) {
        plan.reorder_spike = parse_nonnegative(spec, "reorder SPIKE", parts[1]);
      }
    } else if (key == "storm") {
      if (parts.size() < 2 || parts.size() > 3) {
        bad_spec(spec, "storm needs AT:DUR[:FACTOR]");
      }
      LatencyStorm storm;
      storm.at = parse_nonnegative(spec, "storm AT", parts[0]);
      storm.duration = parse_nonnegative(spec, "storm DUR", parts[1]);
      if (parts.size() > 2) {
        storm.factor = parse_nonnegative(spec, "storm FACTOR", parts[2]);
      }
      plan.storms.push_back(storm);
    } else if (key == "pause") {
      if (parts.size() != 3) bad_spec(spec, "pause needs NODE:AT:DUR");
      PauseWindow pause;
      pause.node = parse_integer<NodeId>(spec, "pause NODE", parts[0]);
      pause.at = parse_nonnegative(spec, "pause AT", parts[1]);
      pause.duration = parse_nonnegative(spec, "pause DUR", parts[2]);
      plan.pauses.push_back(pause);
    } else if (key == "stall") {
      if (parts.size() != 2) bad_spec(spec, "stall needs AT:DUR");
      HolderStall stall;
      stall.at = parse_nonnegative(spec, "stall AT", parts[0]);
      stall.duration = parse_nonnegative(spec, "stall DUR", parts[1]);
      plan.stalls.push_back(stall);
    } else if (key == "seed") {
      plan.seed = parse_integer<std::uint64_t>(spec, key, value);
    } else if (key == "shards") {
      if (parts.empty()) bad_spec(spec, "shards needs A[:B:...]");
      for (const std::string& part : parts) {
        plan.shards.push_back(parse_integer<std::uint32_t>(spec, key, part));
      }
    } else {
      bad_spec(spec, "unknown key '" + key + "'");
    }
  }
  return plan;
}

RetryPolicy parse_retry_policy(const std::string& spec) {
  RetryPolicy retry;
  if (spec.empty()) return retry;
  if (spec == "off") {
    retry.enabled = false;
    return retry;
  }
  for (const std::string& item : split(spec, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) bad_spec(spec, "expected key=value in '" + item + "'");
    const std::string key = item.substr(0, eq);
    std::string value = item.substr(eq + 1);
    if (key == "backoff") {
      if (!value.empty() && value.back() == 'x') value.pop_back();
      retry.backoff = parse_number(spec, key, value);
      if (retry.backoff < 1.0) bad_spec(spec, "backoff multiplier must be >= 1");
    } else if (key == "rto") {
      retry.rto = parse_nonnegative(spec, key, value);
    } else if (key == "cap") {
      retry.max_backoff = parse_nonnegative(spec, key, value);
    } else if (key == "attempts") {
      retry.max_attempts = parse_integer<std::uint32_t>(spec, key, value);
      if (retry.max_attempts == 0) bad_spec(spec, "attempts must be >= 1");
    } else {
      bad_spec(spec, "unknown key '" + key + "'");
    }
  }
  return retry;
}

}  // namespace arvy::faults
