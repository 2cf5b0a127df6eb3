// Deterministic fault schedules.
//
// A FaultPlan is a seed plus a list of rules, each binding a fail point
// to an action (throw or stall) with a per-hit probability and hit-count
// bounds. Whether a given hit of a point triggers is a pure function of
// (plan seed, point name, hit index), so a schedule replays exactly from
// its seed: the set of triggering hit indices is identical across runs
// even when hits arrive from many threads (only which thread draws which
// index varies). Plans serialise to a compact one-line spec so a failing
// chaos run can be reproduced from its log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rrspmm::fault {

/// What a triggered rule does at its fail point.
enum class FaultKind : std::uint8_t {
  throw_error = 0,  ///< throw fault::injected_fault
  stall = 1,        ///< sleep for FaultRule::stall_us microseconds
};

const char* to_string(FaultKind k);

struct FaultRule {
  std::string point;                    ///< fail-point name (see points.hpp)
  FaultKind kind = FaultKind::throw_error;
  double probability = 1.0;             ///< per-hit trigger probability
  std::uint64_t after_hits = 0;         ///< hits of the point to skip first
  std::uint64_t max_triggers = 0;       ///< total firings allowed; 0 = unlimited
  std::uint32_t stall_us = 0;           ///< stall duration (FaultKind::stall)

  bool operator==(const FaultRule&) const = default;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// One-line spec: `seed=<n>;<point>,<kind>[,p=<f>][,after=<n>][,max=<n>][,us=<n>];...`
  std::string to_string() const;

  /// Inverse of to_string. Throws std::invalid_argument on a malformed
  /// spec or an unknown kind.
  static FaultPlan parse(const std::string& spec);

  /// Deterministic chaos plan for the soak suite: always a guaranteed
  /// throw on the first plan build (so the request retry actually
  /// exercises), plus a seed-dependent mix of chunk throws, probe
  /// throws, and stalls on the race-window points. Every throw rule is
  /// capped (max_triggers), so any execution retried enough times
  /// eventually succeeds.
  static FaultPlan chaos(std::uint64_t seed);

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace rrspmm::fault
