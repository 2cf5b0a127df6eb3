#include "fault/fault_plan.hpp"

#include <sstream>
#include <stdexcept>

#include "fault/points.hpp"

namespace rrspmm::fault {

namespace {

/// Local splitmix64 so the chaos generator has no dependency on synth.
struct Mix {
  std::uint64_t x;
  std::uint64_t next() {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string tok;
  std::istringstream is(s);
  while (std::getline(is, tok, sep)) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::throw_error: return "throw";
    case FaultKind::stall: return "stall";
  }
  return "?";
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  // max_digits10: probabilities round-trip exactly, so a logged spec
  // replays the very schedule that failed, not a truncated cousin.
  os.precision(17);
  os << "seed=" << seed;
  for (const FaultRule& r : rules) {
    os << ";" << r.point << "," << fault::to_string(r.kind);
    if (r.probability < 1.0) os << ",p=" << r.probability;
    if (r.after_hits > 0) os << ",after=" << r.after_hits;
    if (r.max_triggers > 0) os << ",max=" << r.max_triggers;
    if (r.kind == FaultKind::stall) os << ",us=" << r.stall_us;
  }
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& part : split(spec, ';')) {
    if (part.rfind("seed=", 0) == 0) {
      plan.seed = std::stoull(part.substr(5));
      continue;
    }
    const std::vector<std::string> fields = split(part, ',');
    if (fields.size() < 2) throw std::invalid_argument("FaultPlan: malformed rule: " + part);
    FaultRule r;
    r.point = fields[0];
    if (fields[1] == "throw") {
      r.kind = FaultKind::throw_error;
    } else if (fields[1] == "stall") {
      r.kind = FaultKind::stall;
    } else {
      throw std::invalid_argument("FaultPlan: unknown kind: " + fields[1]);
    }
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const std::string& f = fields[i];
      const auto eq = f.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("FaultPlan: malformed field: " + f);
      const std::string key = f.substr(0, eq);
      const std::string val = f.substr(eq + 1);
      if (key == "p") {
        r.probability = std::stod(val);
      } else if (key == "after") {
        r.after_hits = std::stoull(val);
      } else if (key == "max") {
        r.max_triggers = std::stoull(val);
      } else if (key == "us") {
        r.stall_us = static_cast<std::uint32_t>(std::stoul(val));
      } else {
        throw std::invalid_argument("FaultPlan: unknown field: " + key);
      }
    }
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed) {
  Mix mix{seed ^ 0xC4A0545EED5EEDULL};
  FaultPlan plan;
  plan.seed = seed;

  // Guaranteed plan-build failure: the first build always throws, so
  // every chaos run exercises the request retry (or, once the attempts run
  // out, the sequential degrade). Every served request fetches its plan,
  // and a failed build is dropped from the cache, so the retry rebuilds.
  // Every throw is capped so recovery can always outlast the plan;
  // race-window points get stalls, never throws.
  {
    FaultRule r;
    r.point = points::kPlanCacheBuild;
    r.kind = FaultKind::throw_error;
    r.probability = 1.0;
    r.max_triggers = 1 + mix.below(3);
    plan.rules.push_back(std::move(r));
  }
  if (mix.below(2) == 0) {
    FaultRule r;
    r.point = points::kWorkerChunk;
    r.kind = FaultKind::throw_error;
    r.probability = 0.02 + 0.05 * mix.unit();
    r.max_triggers = 1 + mix.below(2);
    plan.rules.push_back(std::move(r));
  }
  // Mid-preprocessing throws: the parallel signature/scoring stages
  // degrade to the sequential path (bitwise-equal), so these are capped
  // like every other throw and can never wedge a plan build — the
  // sequential fallback carries no probes.
  if (mix.below(2) == 0) {
    FaultRule r;
    r.point = points::kPreprocSignature;
    r.kind = FaultKind::throw_error;
    r.probability = 0.4 + 0.4 * mix.unit();
    r.max_triggers = 1 + mix.below(3);
    plan.rules.push_back(std::move(r));
  }
  if (mix.below(3) == 0) {
    FaultRule r;
    r.point = points::kPreprocScore;
    r.kind = FaultKind::throw_error;
    r.probability = 0.5;
    r.max_triggers = 1 + mix.below(2);
    plan.rules.push_back(std::move(r));
  }
  // SpGEMM probes: both phases degrade to the sequential sort-based
  // multiply (probes off, bitwise-equal), so throws here are capped like
  // the preprocessing ones and can never wedge a request.
  if (mix.below(2) == 0) {
    FaultRule r;
    r.point = points::kSpgemmSymbolic;
    r.kind = FaultKind::throw_error;
    r.probability = 0.3 + 0.4 * mix.unit();
    r.max_triggers = 1 + mix.below(2);
    plan.rules.push_back(std::move(r));
  }
  if (mix.below(2) == 0) {
    FaultRule r;
    r.point = points::kSpgemmAccumulate;
    r.kind = FaultKind::throw_error;
    r.probability = 0.2 + 0.3 * mix.unit();
    r.max_triggers = 1 + mix.below(3);
    plan.rules.push_back(std::move(r));
  }
  // io.read degrades mmap -> buffered reads and a read is retried up to
  // two more times, so the cap below guarantees forward progress for any
  // schedule.
  if (mix.below(2) == 0) {
    FaultRule r;
    r.point = points::kIoRead;
    r.kind = FaultKind::throw_error;
    r.probability = 0.3 + 0.4 * mix.unit();
    r.max_triggers = 1 + mix.below(2);
    plan.rules.push_back(std::move(r));
  }
  for (const char* p : {points::kServerDrain, points::kServerSubmit, points::kPlanCacheEvict,
                        points::kWorkerTask}) {
    if (mix.below(3) != 0) continue;
    FaultRule r;
    r.point = p;
    r.kind = FaultKind::stall;
    r.probability = 0.2 + 0.3 * mix.unit();
    r.max_triggers = 2 + mix.below(6);
    r.stall_us = static_cast<std::uint32_t>(200 + mix.below(800));
    plan.rules.push_back(std::move(r));
  }
  return plan;
}

}  // namespace rrspmm::fault
