#include "router/router.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "kernels/simd/dispatch.hpp"

namespace rrspmm::router {

namespace {

// Matrices at or below this row count offer the sequential arm: the
// worker pool's fan-out/join overhead is comparable to the whole SpMM
// there, and only a measurement can say which side wins on this host.
constexpr index_t kSequentialArmMaxRows = 4096;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Row key of the table: route_key() without the choice.
std::string table_key(const std::string& fingerprint, Workload w, index_t k) {
  std::string s = fingerprint;
  s += '|';
  s += workload_name(w);
  s += "|k";
  s += std::to_string(k_bucket(k));
  return s;
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::spmm: return "spmm";
    case Workload::sddmm: return "sddmm";
    case Workload::spgemm: return "spgemm";
    case Workload::coalesce: return "coalesce";
  }
  return "?";
}

int k_bucket(index_t k) {
  if (k <= 1) return 0;
  int b = 0;
  index_t v = k - 1;
  while (v > 0) {
    v >>= 1;
    ++b;
  }
  return b;
}

std::string RouteChoice::key() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "s%ut%ub%ua%u", static_cast<unsigned>(spec_mode),
                static_cast<unsigned>(threads), static_cast<unsigned>(batch),
                static_cast<unsigned>(accumulator));
  return buf;
}

std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteChoice& choice) {
  return table_key(fingerprint, w, k) + '|' + choice.key();
}

Router::Router(RouterConfig cfg) : cfg_(cfg) {
  if (cfg_.max_keys == 0) cfg_.max_keys = 1;
}

Router::KeyState* Router::key_locked(const std::string& key) {
  auto it = table_.find(key);
  if (it != table_.end()) return &it->second;
  if (table_.size() >= cfg_.max_keys) return nullptr;
  return &table_[key];
}

Decision Router::decide(const std::string& fingerprint, Workload w, index_t k,
                        const std::vector<RouteChoice>& arms) {
  Decision dec;
  if (arms.empty()) return dec;
  dec.choice = arms[0];

  std::lock_guard<std::mutex> lk(m_);
  KeyState* ks = key_locked(table_key(fingerprint, w, k));
  if (!ks) return dec;  // table full: default, unrouted
  ++decisions_;
  dec.routed = true;
  const std::uint64_t c = ks->counter++;

  // Fill phase: every arm gets min_samples observations before the key
  // exploits, in offer order — deterministic, no RNG. Unobserved arms
  // score +inf, so arms[0] wins when nothing is known.
  std::size_t best = 0;
  double best_score = kInf;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    ArmStats stats;
    for (const Arm& a : ks->arms) {
      if (a.choice == arms[i]) {
        stats = a.stats;
        break;
      }
    }
    if (stats.count < cfg_.min_samples) {
      dec.choice = arms[i];
      dec.explored = true;
      ++explorations_;
      return dec;
    }
    const double score = stats.count > 0 ? stats.mean_us() : kInf;
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }

  // Periodic re-probe so a drifted workload can re-converge.
  if (cfg_.explore_period > 0 && (c % cfg_.explore_period) == cfg_.explore_period - 1) {
    const std::size_t i = static_cast<std::size_t>(c / cfg_.explore_period) % arms.size();
    dec.choice = arms[i];
    dec.explored = i != best;
    if (dec.explored) ++explorations_;
    return dec;
  }

  dec.choice = arms[best];
  return dec;
}

void Router::observe(const std::string& fingerprint, Workload w, index_t k,
                     const RouteChoice& choice, double us) {
  if (us < 0.0) return;
  std::lock_guard<std::mutex> lk(m_);
  KeyState* ks = key_locked(table_key(fingerprint, w, k));
  if (!ks) return;
  for (Arm& a : ks->arms) {
    if (a.choice == choice) {
      a.stats.add(us);
      return;
    }
  }
  ks->arms.push_back(Arm{choice, {}});
  ks->arms.back().stats.add(us);
}

std::vector<RouteChoice> Router::spmm_arms(index_t rows) {
  std::vector<RouteChoice> arms = sddmm_arms();
  if (rows > 0 && rows <= kSequentialArmMaxRows) {
    RouteChoice seq;
    seq.threads = 1;
    arms.push_back(seq);
  }
  return arms;
}

std::vector<RouteChoice> Router::sddmm_arms() {
  std::vector<RouteChoice> arms;
  arms.emplace_back();  // the configured default path
  RouteChoice off;
  off.spec_mode = static_cast<std::uint8_t>(kernels::simd::SpecMode::off);
  arms.push_back(off);
  return arms;
}

std::vector<RouteChoice> Router::spgemm_arms() {
  std::vector<RouteChoice> arms;
  arms.emplace_back();  // config default (auto_select unless overridden)
  RouteChoice hash;
  hash.accumulator = 0;
  arms.push_back(hash);
  RouteChoice sort;
  sort.accumulator = 1;
  arms.push_back(sort);
  return arms;
}

std::vector<RouteChoice> Router::coalesce_arms() {
  std::vector<RouteChoice> arms;
  arms.emplace_back();  // batch = 0: the server's configured max_batch
  RouteChoice single;
  single.batch = 1;
  arms.push_back(single);
  return arms;
}

std::string Router::to_json() const {
  std::vector<std::pair<std::string, ArmStats>> entries;
  std::ostringstream js;
  js.precision(9);
  {
    std::lock_guard<std::mutex> lk(m_);
    js << "{\"keys\":" << table_.size() << ",\"decisions\":" << decisions_
       << ",\"explorations\":" << explorations_;
    for (const auto& [key, ks] : table_) {
      for (const Arm& a : ks.arms) entries.emplace_back(key + '|' + a.choice.key(), a.stats);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  js << ",\"table\":{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, s] = entries[i];
    if (i) js << ',';
    js << '"' << key << "\":{\"count\":" << s.count << ",\"total_us\":" << s.total_us
       << ",\"mean_us\":" << s.mean_us() << ",\"min_us\":" << s.min_us
       << ",\"max_us\":" << s.max_us << '}';
  }
  js << "}}";
  return js.str();
}

std::uint64_t Router::decisions() const {
  std::lock_guard<std::mutex> lk(m_);
  return decisions_;
}

std::uint64_t Router::explorations() const {
  std::lock_guard<std::mutex> lk(m_);
  return explorations_;
}

std::size_t Router::keys() const {
  std::lock_guard<std::mutex> lk(m_);
  return table_.size();
}

std::shared_ptr<Router> from_env() {
  const char* s = std::getenv("RRSPMM_ROUTER");
  if (s == nullptr) return nullptr;
  const std::string_view v(s);
  if (v == "on" || v == "1") return std::make_shared<Router>();
  if (!(v == "off" || v == "0")) {
    // Every ServerConfig reads the knob, so warn once per process.
    static std::once_flag warned;
    std::call_once(warned, [s] {
      std::fprintf(stderr, "rrspmm: RRSPMM_ROUTER=%s is not on/off; the router stays off\n", s);
    });
  }
  return nullptr;
}

}  // namespace rrspmm::router
