#include "router/router.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "kernels/simd/dispatch.hpp"
#include "router/calibration.hpp"

namespace rrspmm::router {

namespace {

// Matrices at or below this row count offer the sequential arm: the
// worker pool's fan-out/join overhead is comparable to the whole SpMM
// there, and only a measurement can say which side wins on this host.
constexpr index_t kSequentialArmMaxRows = 4096;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Arms this version no longer runs, identified by their saved fields:
/// the micro-GEMM arm (g1; select_kernels now picks that kernel),
/// spec-all (s3; it selected the deleted panel K-width entries) and any
/// pinned shard strategy (d != 255; the ShardedExecutor cuts with its
/// configured strategy). Saved tables and v4 plan records that carry
/// them still load, and those entries are dropped.
bool retired_arm(unsigned spec_mode, unsigned micro_gemm, unsigned shard_strategy) {
  return spec_mode == 3 || micro_gemm != 0 || shard_strategy != 255;
}

/// Workload id of the retired shard-strategy decisions; saved entries
/// under it are dropped like retired arms.
constexpr int kRetiredShardWorkload = 3;

/// Parses key() output; false on malformed input. `retired` reports a
/// well-formed key of a retired arm, which callers skip.
bool parse_key(const std::string& s, RouteChoice& out, bool& retired) {
  unsigned sm = 0, g = 0, d = 0, t = 0, b = 0, a = 0;
  if (std::sscanf(s.c_str(), "s%ug%ud%ut%ub%ua%u", &sm, &g, &d, &t, &b, &a) != 6) return false;
  if (sm > 255 || g > 1 || d > 255 || t > 255 || b > 255 || a > 255) return false;
  retired = retired_arm(sm, g, d);
  out.spec_mode = static_cast<std::uint8_t>(sm);
  out.threads = static_cast<std::uint8_t>(t);
  out.batch = static_cast<std::uint8_t>(b);
  out.accumulator = static_cast<std::uint8_t>(a);
  return true;
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
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%ug0d255t%ub%ua%u", static_cast<unsigned>(spec_mode),
                static_cast<unsigned>(threads), static_cast<unsigned>(batch),
                static_cast<unsigned>(accumulator));
  return buf;
}

bool RouteChoice::parse(const std::string& s, RouteChoice& out) {
  bool retired = false;
  return parse_key(s, out, retired) && !retired;
}

RouteContext make_route_context(double mean_nnz_row, double p90_nnz_row) {
  RouteContext ctx;
  ctx.contextual = true;
  ctx.mean_bucket = mean_nnz_row < 2.0 ? 0 : mean_nnz_row < 8.0 ? 1 : mean_nnz_row < 32.0 ? 2 : 3;
  ctx.p90_bucket = p90_nnz_row < 4.0 ? 0 : p90_nnz_row < 16.0 ? 1 : p90_nnz_row < 64.0 ? 2 : 3;
  return ctx;
}

int ctx_bucket(index_t k, const RouteContext& ctx) {
  const int kb = k_bucket(k);
  if (!ctx.contextual) return kb;
  // k_bucket is at most 32 for 32-bit index_t, so the plain buckets
  // occupy 0..63 and every contextual block starts at a multiple of 64
  // with block 0 reserved for "no context" — the two keyings can never
  // collide in a persisted table.
  return kb + 64 * (1 + static_cast<int>(ctx.mean_bucket) * 4 + static_cast<int>(ctx.p90_bucket));
}

std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteChoice& choice) {
  return route_key(fingerprint, w, k, RouteContext{}, choice);
}

std::string route_key(const std::string& fingerprint, Workload w, index_t k,
                      const RouteContext& ctx, const RouteChoice& choice) {
  std::string s = fingerprint;
  s += '|';
  s += workload_name(w);
  s += "|k";
  s += std::to_string(k_bucket(k));
  if (ctx.contextual) {
    s += 'm';
    s += std::to_string(static_cast<int>(ctx.mean_bucket));
    s += 'p';
    s += std::to_string(static_cast<int>(ctx.p90_bucket));
  }
  s += '|';
  s += choice.key();
  return s;
}

Router::Router(RouterConfig cfg) : cfg_(cfg) {
  if (cfg_.max_keys == 0) cfg_.max_keys = 1;
}

std::string Router::table_key(const std::string& fingerprint, Workload w, int bucket) {
  std::string s = fingerprint;
  s += '|';
  s += std::to_string(static_cast<int>(w));
  s += '|';
  s += std::to_string(bucket);
  return s;
}

Router::KeyState* Router::find_locked(const std::string& key) {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

const Router::KeyState* Router::find_locked(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

Router::Arm& Router::arm_locked(KeyState& ks, const RouteChoice& choice) {
  for (Arm& a : ks.arms) {
    if (a.choice == choice) return a;
  }
  ks.arms.push_back(Arm{choice, {}});
  return ks.arms.back();
}

const ArmStats* Router::prior_locked(Workload w, int bucket, const RouteChoice& choice) const {
  const KeyState* ks = find_locked(table_key(std::string(), w, bucket));
  if (!ks) return nullptr;
  for (const Arm& a : ks->arms) {
    if (a.choice == choice && a.stats.count > 0) return &a.stats;
  }
  return nullptr;
}

Decision Router::decide(const std::string& fingerprint, Workload w, index_t k,
                        const std::vector<RouteChoice>& arms) {
  return decide(fingerprint, w, k, RouteContext{}, arms);
}

Decision Router::decide(const std::string& fingerprint, Workload w, index_t k,
                        const RouteContext& ctx, const std::vector<RouteChoice>& arms) {
  Decision dec;
  if (!arms.empty()) dec.choice = arms[0];
  if (arms.empty()) return dec;
  const int base_bucket = k_bucket(k);
  const int bucket = ctx_bucket(k, ctx);
  const std::string key = table_key(fingerprint, w, bucket);

  std::lock_guard<std::mutex> lk(m_);
  KeyState* ks = find_locked(key);
  if (!ks) {
    if (table_.size() >= cfg_.max_keys) return dec;  // table full: default, unrouted
    ks = &table_[key];
  }
  ++decisions_;
  dec.routed = true;

  // Arms observed under the plain K-bucket key seed a contextual key
  // that has not measured them yet, so a pre-contextual table (or a
  // sibling context) still informs the first contextual decisions.
  const KeyState* legacy =
      ctx.contextual ? find_locked(table_key(fingerprint, w, base_bucket)) : nullptr;

  // Score every offered arm: local mean, else the legacy pure-K key,
  // else the fingerprint-agnostic prior, else unknown (+inf — sampled
  // first in online mode, ranked last in frozen mode where arms[0]
  // wins ties).
  std::size_t best = 0;
  double best_score = kInf;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    double score = kInf;
    for (const Arm& a : ks->arms) {
      if (a.choice == arms[i] && a.stats.count > 0) {
        score = a.stats.mean_us();
        break;
      }
    }
    if (score == kInf && legacy != nullptr) {
      for (const Arm& a : legacy->arms) {
        if (a.choice == arms[i] && a.stats.count > 0) {
          score = a.stats.mean_us();
          break;
        }
      }
    }
    if (score == kInf) {
      if (const ArmStats* p = prior_locked(w, base_bucket, arms[i])) score = p->mean_us();
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }

  if (cfg_.frozen) {
    dec.choice = arms[best_score == kInf ? 0 : best];
    return dec;
  }

  const std::uint64_t c = ks->counter++;

  // Fill phase: every arm gets min_samples local observations before the
  // key exploits, in offer order — deterministic, no RNG.
  for (std::size_t i = 0; i < arms.size(); ++i) {
    std::uint64_t have = 0;
    for (const Arm& a : ks->arms) {
      if (a.choice == arms[i]) {
        have = a.stats.count;
        break;
      }
    }
    if (have < cfg_.min_samples) {
      dec.choice = arms[i];
      dec.explored = true;
      ++explorations_;
      return dec;
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

  dec.choice = arms[best_score == kInf ? 0 : best];
  return dec;
}

void Router::observe(const std::string& fingerprint, Workload w, index_t k,
                     const RouteChoice& choice, double us) {
  observe(fingerprint, w, k, RouteContext{}, choice, us);
}

void Router::observe(const std::string& fingerprint, Workload w, index_t k,
                     const RouteContext& ctx, const RouteChoice& choice, double us) {
  if (cfg_.frozen || us < 0.0) return;
  const std::string key = table_key(fingerprint, w, ctx_bucket(k, ctx));
  std::lock_guard<std::mutex> lk(m_);
  KeyState* ks = find_locked(key);
  if (!ks) {
    if (table_.size() >= cfg_.max_keys) return;
    ks = &table_[key];
  }
  arm_locked(*ks, choice).stats.add(us);
}

RouteChoice Router::preferred(const std::string& fingerprint, Workload w,
                              const RouteChoice& fallback) const {
  const std::string prefix = fingerprint + '|' + std::to_string(static_cast<int>(w)) + '|';
  std::lock_guard<std::mutex> lk(m_);
  // Aggregate each arm across this (fingerprint, workload)'s K-buckets;
  // best mean with at least one observation wins.
  std::vector<Arm> merged;
  for (const auto& [key, ks] : table_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    for (const Arm& a : ks.arms) {
      bool found = false;
      for (Arm& m : merged) {
        if (m.choice == a.choice) {
          m.stats.merge(a.stats);
          found = true;
          break;
        }
      }
      if (!found) merged.push_back(a);
    }
  }
  const Arm* best = nullptr;
  for (const Arm& a : merged) {
    if (a.stats.count == 0) continue;
    if (!best || a.stats.mean_us() < best->stats.mean_us()) best = &a;
  }
  if (best) return best->choice;
  return fallback;
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

void Router::install_prior(Workload w, int bucket, const RouteChoice& choice, double mean_us,
                           std::uint64_t weight) {
  if (weight == 0 || mean_us < 0.0) return;
  std::lock_guard<std::mutex> lk(m_);
  KeyState* ks = find_locked(table_key(std::string(), w, bucket));
  if (!ks) {
    if (table_.size() >= cfg_.max_keys) return;
    ks = &table_[table_key(std::string(), w, bucket)];
  }
  ArmStats s;
  s.count = weight;
  s.total_us = mean_us * static_cast<double>(weight);
  s.min_us = mean_us;
  s.max_us = mean_us;
  arm_locked(*ks, choice).stats.merge(s);
}

std::size_t Router::load_calibration_json(const std::string& json) {
  return calibrate_from_json(*this, parse_json(json));
}

std::size_t Router::load_calibration_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("router calibration: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return load_calibration_json(buf.str());
}

void Router::save_table(std::ostream& out) const {
  std::lock_guard<std::mutex> lk(m_);
  out << "rrspmm-router-table v1\n" << table_.size() << '\n';
  out.precision(17);
  for (const auto& [key, ks] : table_) {
    // key = "<fp>|<workload>|<bucket>"; fp may be empty (priors).
    const std::size_t p2 = key.rfind('|');
    const std::size_t p1 = key.rfind('|', p2 - 1);
    std::string fp = key.substr(0, p1);
    out << (fp.empty() ? "-" : fp) << ' ' << key.substr(p1 + 1, p2 - p1 - 1) << ' '
        << key.substr(p2 + 1) << ' ' << ks.arms.size() << ' ' << ks.counter << '\n';
    for (const Arm& a : ks.arms) {
      out << a.choice.key() << ' ' << a.stats.count << ' ' << a.stats.total_us << ' '
          << a.stats.min_us << ' ' << a.stats.max_us << '\n';
    }
  }
}

std::size_t Router::load_table(std::istream& in) {
  std::string header;
  std::getline(in, header);
  if (header != "rrspmm-router-table v1") {
    throw std::runtime_error("not an rrspmm router table");
  }
  std::size_t nkeys = 0;
  in >> nkeys;
  std::size_t loaded = 0;
  std::lock_guard<std::mutex> lk(m_);
  for (std::size_t i = 0; i < nkeys; ++i) {
    std::string fp;
    int w = 0;
    int bucket = 0;
    std::size_t narms = 0;
    std::uint64_t counter = 0;
    if (!(in >> fp >> w >> bucket >> narms >> counter)) {
      throw std::runtime_error("router table truncated");
    }
    if (fp == "-") fp.clear();
    if (w < 0 || w >= static_cast<int>(kWorkloadCount) || narms > 256) {
      throw std::runtime_error("router table is corrupt");
    }
    KeyState* ks = nullptr;
    if (w != kRetiredShardWorkload) {
      const std::string key = table_key(fp, static_cast<Workload>(w), bucket);
      ks = find_locked(key);
      if (!ks && table_.size() < cfg_.max_keys) ks = &table_[key];
    }
    for (std::size_t a = 0; a < narms; ++a) {
      std::string ck;
      ArmStats s;
      if (!(in >> ck >> s.count >> s.total_us >> s.min_us >> s.max_us)) {
        throw std::runtime_error("router table truncated");
      }
      RouteChoice choice;
      bool retired = false;
      if (!parse_key(ck, choice, retired)) throw std::runtime_error("router table is corrupt");
      if (ks && !retired) {
        arm_locked(*ks, choice).stats.merge(s);
        ++loaded;
      }
    }
    if (ks && counter > ks->counter) ks->counter = counter;
  }
  return loaded;
}

void Router::save_table_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("router table: cannot open " + path + " for writing");
  save_table(f);
  if (!f) throw std::runtime_error("router table: failed writing " + path);
}

std::size_t Router::load_table_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("router table: cannot open " + path);
  return load_table(f);
}

std::vector<core::RouteRecord> Router::export_records(const std::string& fingerprint) const {
  std::vector<core::RouteRecord> out;
  const std::string prefix = fingerprint + '|';
  std::lock_guard<std::mutex> lk(m_);
  for (const auto& [key, ks] : table_) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t p2 = key.rfind('|');
    const std::size_t p1 = key.rfind('|', p2 - 1);
    if (p1 < prefix.size() - 1) continue;  // '|' inside the fingerprint? skip
    const int w = std::atoi(key.c_str() + p1 + 1);
    const int bucket = std::atoi(key.c_str() + p2 + 1);
    if (key.substr(0, p1) != fingerprint) continue;
    for (const Arm& a : ks.arms) {
      if (a.stats.count == 0) continue;
      core::RouteRecord r;
      r.workload = static_cast<std::uint8_t>(w);
      r.k_bucket = bucket;
      r.spec_mode = a.choice.spec_mode;
      r.threads = a.choice.threads;
      r.batch = a.choice.batch;
      r.accumulator = a.choice.accumulator;
      r.count = a.stats.count;
      r.total_us = a.stats.total_us;
      r.min_us = a.stats.min_us;
      r.max_us = a.stats.max_us;
      out.push_back(r);
    }
  }
  return out;
}

std::size_t Router::import_records(const std::string& fingerprint,
                                   const std::vector<core::RouteRecord>& records) {
  std::size_t merged = 0;
  std::lock_guard<std::mutex> lk(m_);
  for (const core::RouteRecord& r : records) {
    if (r.workload >= kWorkloadCount || r.workload == kRetiredShardWorkload || r.count == 0 ||
        retired_arm(r.spec_mode, r.micro_gemm, r.shard_strategy)) {
      continue;
    }
    const std::string key =
        table_key(fingerprint, static_cast<Workload>(r.workload), r.k_bucket);
    KeyState* ks = find_locked(key);
    if (!ks) {
      if (table_.size() >= cfg_.max_keys) continue;
      ks = &table_[key];
    }
    RouteChoice choice;
    choice.spec_mode = r.spec_mode;
    choice.threads = r.threads;
    choice.batch = r.batch;
    choice.accumulator = r.accumulator;
    ArmStats s;
    s.count = r.count;
    s.total_us = r.total_us;
    s.min_us = r.min_us;
    s.max_us = r.max_us;
    arm_locked(*ks, choice).stats.merge(s);
    ++merged;
  }
  return merged;
}

std::string Router::to_json() const {
  std::ostringstream js;
  js.precision(9);
  std::lock_guard<std::mutex> lk(m_);
  js << "{\"frozen\":" << (cfg_.frozen ? "true" : "false") << ",\"keys\":" << table_.size()
     << ",\"decisions\":" << decisions_ << ",\"explorations\":" << explorations_
     << ",\"table\":{";
  bool first_key = true;
  for (const auto& [key, ks] : table_) {
    if (!first_key) js << ',';
    first_key = false;
    js << '"' << key << "\":{";
    for (std::size_t i = 0; i < ks.arms.size(); ++i) {
      const Arm& a = ks.arms[i];
      if (i) js << ',';
      js << '"' << a.choice.key() << "\":{\"count\":" << a.stats.count
         << ",\"mean_us\":" << a.stats.mean_us() << ",\"min_us\":" << a.stats.min_us
         << ",\"max_us\":" << a.stats.max_us << '}';
    }
    js << '}';
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
  RouterConfig cfg;
  if (v == "frozen") {
    cfg.frozen = true;
  } else if (!(v == "1" || v == "on" || v == "true" || v == "yes" || v == "online")) {
    return nullptr;
  }
  auto r = std::make_shared<Router>(cfg);
  if (const char* path = std::getenv("RRSPMM_ROUTER_TABLE")) {
    try {
      r->load_table_file(path);
    } catch (const std::exception& e) {
      // Serving must not die for a stale or missing table: warn and run
      // cold (online mode will relearn; frozen mode routes defaults).
      std::fprintf(stderr, "rrspmm: RRSPMM_ROUTER_TABLE ignored: %s\n", e.what());
    }
  }
  return r;
}

// --- Calibration ------------------------------------------------------

std::size_t calibrate_from_json(Router& r, const JsonValue& doc) {
  const JsonValue* bench = doc.find("bench");
  const std::string* name = bench ? bench->string_or_null() : nullptr;
  if (name == nullptr) return 0;
  std::size_t installed = 0;

  if (*name == "kernel_scaling") {
    // The specialization table measures exactly the spec-on vs spec-off
    // alternative per (op, K): generic_ms seeds the spec-off arm,
    // spec_ms the default arm.
    if (const JsonValue* spec = doc.find("specialization")) {
      for (const JsonValue& e : spec->arr) {
        const JsonValue* op = e.find("op");
        const std::string* opname = op ? op->string_or_null() : nullptr;
        if (opname == nullptr) continue;
        const Workload w = *opname == "sddmm" ? Workload::sddmm : Workload::spmm;
        const int bucket = k_bucket(static_cast<index_t>(
            e.find("k") ? e.find("k")->number_or(0) : 0));
        const double generic_ms = e.find("generic_ms") ? e.find("generic_ms")->number_or(-1) : -1;
        const double spec_ms = e.find("spec_ms") ? e.find("spec_ms")->number_or(-1) : -1;
        if (generic_ms > 0) {
          RouteChoice off;
          off.spec_mode = static_cast<std::uint8_t>(kernels::simd::SpecMode::off);
          r.install_prior(w, bucket, off, generic_ms * 1000.0);
          ++installed;
        }
        if (spec_ms > 0) {
          r.install_prior(w, bucket, RouteChoice{}, spec_ms * 1000.0);
          ++installed;
        }
      }
    }
  } else if (*name == "spgemm_scaling") {
    if (const JsonValue* results = doc.find("results")) {
      for (const JsonValue& e : results->arr) {
        const double hash_ms = e.find("hash_ms") ? e.find("hash_ms")->number_or(-1) : -1;
        const double sort_ms = e.find("sort_ms") ? e.find("sort_ms")->number_or(-1) : -1;
        if (hash_ms > 0) {
          RouteChoice c;
          c.accumulator = 0;
          r.install_prior(Workload::spgemm, 0, c, hash_ms * 1000.0);
          ++installed;
        }
        if (sort_ms > 0) {
          RouteChoice c;
          c.accumulator = 1;
          r.install_prior(Workload::spgemm, 0, c, sort_ms * 1000.0);
          ++installed;
        }
      }
    }
  } else if (*name == "serving_throughput") {
    // Serving latency seeds the coalescing default arm: the measured mix
    // already runs with coalescing on, so its p50 is that arm's prior.
    if (const JsonValue* results = doc.find("results")) {
      for (const JsonValue& e : results->arr) {
        const double p50 =
            e.find("latency_p50_s") ? e.find("latency_p50_s")->number_or(-1) : -1;
        if (p50 <= 0) continue;
        r.install_prior(Workload::coalesce, 0, RouteChoice{}, p50 * 1e6);
        ++installed;
      }
    }
  }
  return installed;
}

}  // namespace rrspmm::router
