// End-to-end serving benchmark with a per-layer breakdown.
//
//   perfbench_main --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir> [--trace-file <path>]
//                    [--inject-fault mismatch|premise]
//
// One run: generate the workload's matrix from the seed and write it as
// .mtx (untimed); set up a warm server from the file several times
// (streamed ingest -> register -> warm) and report the median; compute
// scalar references; then drive the server from one closed-loop
// generator thread for `seconds`, checking every response bitwise.
// With --trace 1 the serving phase runs half untraced and half traced,
// and every layer's public entry point is timed on the workload's own
// inputs and warm plan; spans go to a Chrome trace file.
//
// The last stdout line is the result object (see result.hpp). Exit
// codes: 0 ok, 1 a response failed or mismatched its reference (the
// result line says correct=false), 2 usage error or a failed workload
// premise (no result line), 3 any other error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef RRSPMM_HAVE_OPENMP
#include <omp.h>
#endif

#include "aspt/aspt.hpp"
#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "io/mm_stream.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/specialize.hpp"
#include "kernels/spmm.hpp"
#include "result.hpp"
#include "runtime/execute.hpp"
#include "runtime/server.hpp"
#include "sparse/dense.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/permute.hpp"
#include "spgemm/spgemm.hpp"
#include "stats.hpp"
#include "synth/generators.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using rrspmm::index_t;
using rrspmm::value_t;
using rrspmm::core::ExecutionPlan;
using rrspmm::runtime::PlanPtr;
using rrspmm::runtime::Server;
using rrspmm::sparse::CsrMatrix;
using rrspmm::sparse::DenseMatrix;
using rrspmm::sparse::DenseMutView;
using rrspmm::sparse::DenseView;
namespace simd = rrspmm::kernels::simd;

/// A failed workload premise or bad invocation: no result line, exit 2.
struct premise_failed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Invocation

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
  std::string inject;  ///< "", "mismatch" or "premise"
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw premise_failed("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--inject-fault") {
      if (v != "mismatch" && v != "premise") throw premise_failed("unknown fault: " + v);
      a.inject = v;
    } else {
      throw premise_failed("unknown argument: " + k);
    }
  }
  if (a.workload.empty() || a.work_dir.empty()) {
    throw premise_failed("usage: perfbench_main --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> --work-dir <dir>");
  }
  if (!(a.seconds > 0.0)) throw premise_failed("--seconds must be positive");
  return a;
}

/// Removes every RRSPMM_* variable before the library reads any of them,
/// so knobs set in the caller's shell cannot change the measured path.
/// Returns the names removed.
std::vector<std::string> scrub_library_env() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("RRSPMM_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

// ---------------------------------------------------------------------------
// Host description

struct Host {
  unsigned nproc = 1;
  unsigned threads = 1;  ///< server, preprocessing and OpenMP width
  double l2_bytes = 0.0;
  double l3_bytes = 0.0;
  std::string isa;
};

double read_cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream lf(dir + "level"), tf(dir + "type"), sf(dir + "size");
    int lvl = 0;
    std::string type, size;
    if (!(lf >> lvl) || !(tf >> type) || !(sf >> size)) continue;
    if (lvl != level || type == "Instruction" || size.empty()) continue;
    double mult = 1.0;
    if (size.back() == 'K') mult = 1024.0;
    if (size.back() == 'M') mult = 1024.0 * 1024.0;
    return std::atof(size.c_str()) * mult;
  }
  return 0.0;
}

Host describe_host() {
  Host h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 1u;
  h.threads = std::min(4u, h.nproc);
  h.l2_bytes = read_cache_bytes(2);
  h.l3_bytes = read_cache_bytes(3);
  h.isa = std::string(simd::isa_name(simd::resolve_isa(std::nullopt)));
  return h;
}

/// Aggregate CPU time from /proc/stat (clock ticks), to show how much of
/// the host the timed phase had: busy = user+nice+system+irq+softirq.
struct CpuTimes {
  double busy = 0.0, steal = 0.0, total = 0.0;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, sys = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  CpuTimes t;
  if (in >> cpu >> user >> nice >> sys >> idle >> iowait >> irq >> softirq >> steal) {
    t.busy = user + nice + sys + irq + softirq;
    t.steal = steal;
    t.total = t.busy + idle + iowait + steal;
  }
  return t;
}

/// Kernel selection for every call the benchmark makes: auto ISA, the
/// bitwise (non-fma) path, row-wise specialization (the library default).
simd::KernelConfig pinned_kernel() {
  simd::KernelConfig k;
  k.spec_mode = simd::SpecMode::rows;
  return k;
}

simd::KernelConfig scalar_kernel() {
  simd::KernelConfig k;
  k.isa = simd::Isa::scalar;
  k.spec_mode = simd::SpecMode::off;
  return k;
}

/// Every knob that decides the measured path, set explicitly.
rrspmm::runtime::ServerConfig server_config(const Host& h) {
  rrspmm::runtime::ServerConfig cfg;
  cfg.threads = h.threads;
  cfg.plan_cache_capacity = 4;
  cfg.mode = rrspmm::runtime::PlanMode::rr;
  cfg.max_batch = 8;
  cfg.pipeline = rrspmm::core::PipelineConfig{};
  cfg.pipeline.threads = static_cast<int>(h.threads);
  cfg.pipeline.reorder.threads = static_cast<int>(h.threads);
  cfg.executor = nullptr;
  cfg.retry = rrspmm::runtime::RetryPolicy{};
  cfg.spgemm = rrspmm::spgemm::SpgemmConfig{};
  cfg.kernel = pinned_kernel();
  cfg.router = nullptr;
  cfg.zero_copy = true;
  cfg.numa = rrspmm::runtime::topo::NumaMode::off;
  return cfg;
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { clustered_spmm, scattered_attn, frontier_spgemm };

struct Workload {
  Kind kind;
  std::string name;
  std::size_t depth;  ///< requests outstanding (closed loop)
  index_t k_spmm;     ///< SpMM operand width (the SpMM layer timings use it on every workload)
  index_t k_sddmm = 32;
  int setup_reps = 5;  ///< set-ups per run; setup_s is their median
};

Workload workload_by_name(const std::string& name) {
  if (name == "clustered_spmm") return {Kind::clustered_spmm, name, 4, 64};
  if (name == "scattered_attn") return {Kind::scattered_attn, name, 2, 128};
  if (name == "frontier_spgemm") return {Kind::frontier_spgemm, name, 4, 64};
  throw premise_failed("unknown workload: " + name);
}

CsrMatrix generate(const Workload& w, std::uint64_t seed) {
  switch (w.kind) {
    case Kind::clustered_spmm: {
      rrspmm::synth::ClusteredParams p;
      p.rows = 16384;
      p.cols = 16384;
      p.num_groups = 128;
      p.group_cols = 96;
      p.row_nnz = 24;
      p.noise_nnz = 2;
      p.scatter = true;
      return rrspmm::synth::clustered_rows(p, seed);
    }
    case Kind::scattered_attn:
      return rrspmm::synth::erdos_renyi(8192, 8192, 8192 * 12, seed);
    case Kind::frontier_spgemm: {
      rrspmm::synth::GnnFrontierParams p;
      p.nodes = 2048;
      p.communities = 64;
      p.fanout = 12;
      p.hub_cols = 16;
      p.hub_prob = 0.15;
      return rrspmm::synth::gnn_frontier(p, seed);
    }
  }
  throw premise_failed("unreachable workload kind");
}

/// Each workload asserts the regime it was built to measure, so it cannot
/// drift silently into another one.
void check_premise(const Workload& w, const ExecutionPlan& plan, bool inject) {
  const auto& st = plan.stats;
  const double dense = plan.tiled.stats().dense_ratio();
  std::string why;
  switch (w.kind) {
    case Kind::clustered_spmm:
      if (!st.round1_applied || !st.round2_applied) why = "both reorder rounds must fire";
      else if (dense < 0.80) why = "dense tiles must hold >= 80% of nonzeros";
      break;
    case Kind::scattered_attn:
      if (dense >= 0.05) why = "dense tiles must hold < 5% of nonzeros";
      break;
    case Kind::frontier_spgemm:
      if (!st.round2_applied) why = "round 2 must fire";
      break;
  }
  if (inject) why = "injected premise failure";
  if (!why.empty()) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "premise failed for %s: %s (round1=%d round2=%d dense_ratio=%.4f)",
                  w.name.c_str(), why.c_str(), st.round1_applied ? 1 : 0,
                  st.round2_applied ? 1 : 0, dense);
    throw premise_failed(buf);
  }
}

// ---------------------------------------------------------------------------
// Set-up: .mtx on disk -> streamed ingest -> register -> warm

struct SetupResult {
  std::vector<double> total_s;
  std::vector<double> ingest_s;
  std::unique_ptr<Server> server;  ///< the last set-up's warm server
  PlanPtr plan;
  CsrMatrix matrix;                ///< the ingested matrix, kept for references
};

SetupResult set_up(const Workload& w, const Host& h, const std::string& path,
                   const std::string& spill_dir, Tracer& tr) {
  SetupResult r;
  rrspmm::io::StreamingBuildConfig bcfg;
  bcfg.spill_dir = spill_dir;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    r.server.reset();  // drop the previous server (and its plan) untimed
    r.plan.reset();
    const std::uint64_t root = tr.open("setup", "setup");
    const auto t0 = Clock::now();
    const std::uint64_t s_ingest = tr.open("io.ingest", "io", root);
    CsrMatrix m = rrspmm::io::read_matrix_market_streamed(path, bcfg);
    tr.close(s_ingest);
    const auto t1 = Clock::now();
    if (rep == 0) r.matrix = m;  // untimed copy, subtracted below
    const auto t2 = Clock::now();
    const std::uint64_t s_reg = tr.open("server.register", "server", root);
    auto server = std::make_unique<Server>(server_config(h));
    server->register_matrix("A", std::move(m));
    tr.close(s_reg);
    const std::uint64_t s_warm = tr.open("server.warm", "server", root);
    PlanPtr plan = server->warm("A");
    tr.close(s_warm);
    const auto t3 = Clock::now();
    tr.close(root);
    r.ingest_s.push_back(seconds_between(t0, t1));
    r.total_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t3));
    r.server = std::move(server);
    r.plan = std::move(plan);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Bitwise comparison

bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t row_bytes = static_cast<std::size_t>(a.cols()) * sizeof(value_t);
  for (index_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.row(i).data(), b.row(i).data(), row_bytes) != 0) return false;
  }
  return true;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && same_bits(a.rowptr(), b.rowptr()) &&
         same_bits(a.colidx(), b.colidx()) && same_bits(a.values(), b.values());
}

/// Scalar-ISA SpMM reference through the plan. Every served path
/// accumulates a row's dense-tile terms before its sparse-remainder
/// terms, so the bitwise reference is the scalar ASpT kernel on the same
/// tiling; the row-wise CSR kernel sums in column order and agrees only
/// to rounding, which is checked here as a guard on the plan itself.
DenseMatrix spmm_reference(const ExecutionPlan& plan, const CsrMatrix& a, const DenseMatrix& x) {
  const simd::KernelConfig scalar = scalar_kernel();
  DenseMatrix yp(plan.tiled.rows(), x.cols());
  rrspmm::kernels::spmm_aspt(plan.tiled, x, yp, &plan.sparse_order, scalar);
  DenseMatrix y = rrspmm::sparse::unpermute_dense_rows(yp, plan.row_perm);
  DenseMatrix rowwise(a.rows(), x.cols());
  rrspmm::kernels::spmm_rowwise(a, x, rowwise, scalar);
  if (y.max_abs_diff(rowwise) > 1e-3) {
    throw std::runtime_error("plan reference disagrees with row-wise CSR beyond rounding");
  }
  return y;
}

/// Flips the lowest mantissa bit of `v` (--inject-fault mismatch).
void flip_low_bit(value_t& v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof bits);
}

// ---------------------------------------------------------------------------
// Clients: one per workload. The closed loop below drives them from a
// single generator thread. submit() returns the instant just before the
// Server call (the latency start); finish() takes the resolved result
// and checks it bitwise against its reference before the slot is reused.

class Client {
 public:
  virtual ~Client() = default;
  virtual std::size_t depth() const = 0;
  virtual Clock::time_point submit(std::size_t slot, std::uint64_t seq) = 0;
  virtual bool ready(std::size_t slot, std::chrono::microseconds wait) = 0;
  /// False when the request threw or its result differs from the reference.
  virtual bool finish(std::size_t slot) = 0;
  /// Name, useful flops and batching of the request in flight in `slot`.
  virtual const char* kind(std::size_t slot) const = 0;
  virtual double flops(std::size_t slot) const = 0;
  /// True when the request can never join a coalesced batch (SDDMM and
  /// SpGEMM execute singly by contract).
  virtual bool single(std::size_t slot) const = 0;
};

/// Zero-copy view SpMM: the server reads the caller's X and writes the
/// caller's Y. Each slot's submissions alternate between the two X
/// operands, so its Y buffer never receives the same product twice in a
/// row: a response that leaves Y unwritten fails the check.
class ViewSpmmClient final : public Client {
 public:
  ViewSpmmClient(Server& srv, std::size_t depth, const std::vector<DenseMatrix>& xs,
                 const std::vector<DenseMatrix>& refs, double flops)
      : srv_(srv), xs_(xs), refs_(refs), flops_(flops), slots_(depth) {
    for (Slot& s : slots_) s.y = DenseMatrix(refs.front().rows(), refs.front().cols());
  }
  std::size_t depth() const override { return slots_.size(); }
  Clock::time_point submit(std::size_t slot, std::uint64_t) override {
    Slot& s = slots_[slot];
    s.xi = s.n++ % 2;
    const auto t0 = Clock::now();
    s.fut = srv_.submit("A", DenseView(xs_[s.xi]), DenseMutView(s.y));
    return t0;
  }
  bool ready(std::size_t slot, std::chrono::microseconds wait) override {
    return slots_[slot].fut.wait_for(wait) == std::future_status::ready;
  }
  bool finish(std::size_t slot) override {
    Slot& s = slots_[slot];
    try {
      s.fut.get();
    } catch (const std::exception&) {
      return false;
    }
    return same_bits(s.y, refs_[s.xi]);
  }
  const char* kind(std::size_t) const override { return "spmm_view"; }
  double flops(std::size_t) const override { return flops_; }
  bool single(std::size_t) const override { return false; }

 private:
  struct Slot {
    DenseMatrix y;
    std::size_t n = 0;   ///< submissions so far
    std::size_t xi = 0;  ///< operand of the request in flight
    std::future<void> fut;
  };
  Server& srv_;
  const std::vector<DenseMatrix>& xs_;
  const std::vector<DenseMatrix>& refs_;
  double flops_;
  std::vector<Slot> slots_;
};

/// A GAT-style inference client on the owned API that pipelines two
/// requests: slot 0 always runs SDDMM at the SDDMM width (attention
/// scores), slot 1 SpMM at the SpMM width (aggregation). Only one SpMM is
/// ever queued, so no request can coalesce. Operands are copied into
/// request-owned matrices (the owned path's copy-in).
class OwnedAttnClient final : public Client {
 public:
  OwnedAttnClient(Server& srv, const DenseMatrix& x_sddmm, const DenseMatrix& y_sddmm,
                  const std::vector<value_t>& ref_sddmm, const DenseMatrix& x_spmm,
                  const DenseMatrix& ref_spmm, double flops_sddmm, double flops_spmm)
      : srv_(srv), x_sddmm_(x_sddmm), y_sddmm_(y_sddmm), ref_sddmm_(ref_sddmm),
        x_spmm_(x_spmm), ref_spmm_(ref_spmm), flops_sddmm_(flops_sddmm),
        flops_spmm_(flops_spmm) {}
  std::size_t depth() const override { return 2; }
  Clock::time_point submit(std::size_t slot, std::uint64_t) override {
    if (slot == 0) {
      DenseMatrix x = x_sddmm_;
      DenseMatrix y = y_sddmm_;
      const auto t0 = Clock::now();
      fut_sddmm_ = srv_.submit_sddmm("A", std::move(x), std::move(y));
      return t0;
    }
    DenseMatrix x = x_spmm_;
    const auto t0 = Clock::now();
    fut_spmm_ = srv_.submit("A", std::move(x));
    return t0;
  }
  bool ready(std::size_t slot, std::chrono::microseconds wait) override {
    const auto st = slot == 0 ? fut_sddmm_.wait_for(wait) : fut_spmm_.wait_for(wait);
    return st == std::future_status::ready;
  }
  bool finish(std::size_t slot) override {
    try {
      return slot == 0 ? same_bits(fut_sddmm_.get(), ref_sddmm_)
                       : same_bits(fut_spmm_.get(), ref_spmm_);
    } catch (const std::exception&) {
      return false;
    }
  }
  const char* kind(std::size_t slot) const override {
    return slot == 0 ? "sddmm_owned" : "spmm_owned";
  }
  double flops(std::size_t slot) const override { return slot == 0 ? flops_sddmm_ : flops_spmm_; }
  bool single(std::size_t slot) const override { return slot == 0; }

 private:
  Server& srv_;
  const DenseMatrix& x_sddmm_;
  const DenseMatrix& y_sddmm_;
  const std::vector<value_t>& ref_sddmm_;
  const DenseMatrix& x_spmm_;
  const DenseMatrix& ref_spmm_;
  double flops_sddmm_, flops_spmm_;
  std::future<std::vector<value_t>> fut_sddmm_;
  std::future<DenseMatrix> fut_spmm_;
};

/// SpGEMM A*A through Server::submit_spgemm, one sparse output per request.
class SpgemmClient final : public Client {
 public:
  SpgemmClient(Server& srv, std::size_t depth, const CsrMatrix& ref, double flops)
      : srv_(srv), ref_(ref), flops_(flops), futs_(depth) {}
  std::size_t depth() const override { return futs_.size(); }
  Clock::time_point submit(std::size_t slot, std::uint64_t) override {
    const auto t0 = Clock::now();
    futs_[slot] = srv_.submit_spgemm("A", "A");
    return t0;
  }
  bool ready(std::size_t slot, std::chrono::microseconds wait) override {
    return futs_[slot].wait_for(wait) == std::future_status::ready;
  }
  bool finish(std::size_t slot) override {
    try {
      return same_bits(futs_[slot].get(), ref_);
    } catch (const std::exception&) {
      return false;
    }
  }
  const char* kind(std::size_t) const override { return "spgemm"; }
  double flops(std::size_t) const override { return flops_; }
  bool single(std::size_t) const override { return true; }

 private:
  Server& srv_;
  const CsrMatrix& ref_;
  double flops_;
  std::vector<std::future<CsrMatrix>> futs_;
};

// ---------------------------------------------------------------------------
// Closed-loop generator

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> done_s;      ///< completion instants, s since phase start
  std::vector<double> done_flops;  ///< useful flops of each completion (0 if failed)
  double flops = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t single_kind = 0;  ///< requests the server always executes alone (SDDMM, SpGEMM)
  double seconds = 0.0;
  double busy = 0.0;   ///< share of host CPU time busy during the phase
  double steal = 0.0;  ///< share of host CPU time stolen by the hypervisor

  /// Median over ~1 s windows of useful GFLOP/s (see window_rates).
  double gflops() const {
    const std::vector<double> r = window_rates(done_s, done_flops, seconds, 1.0);
    return r.empty() ? 0.0 : median(r) / 1e9;
  }
};

/// Keeps client.depth() requests outstanding until `seconds` have passed,
/// then drains. A completion is detected by polling every outstanding
/// future, oldest first, and otherwise blocking on the oldest for at most
/// 200 µs, so an out-of-order completion is timestamped within that. Each
/// result is checked before its slot is refilled.
Phase closed_loop(Client& c, double seconds, Tracer& tr, std::uint64_t& seq) {
  const std::size_t depth = c.depth();
  std::vector<Clock::time_point> t0(depth);
  std::vector<double> submit_end_us(depth);
  std::vector<std::uint64_t> req(depth);
  std::deque<std::size_t> order;  // outstanding slots, oldest first
  Phase ph;

  const CpuTimes cpu0 = read_cpu_times();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const auto send = [&](std::size_t s) {
    req[s] = seq++;
    t0[s] = c.submit(s, req[s]);
    if (tr.enabled()) submit_end_us[s] = tr.now_us();
    order.push_back(s);
  };
  for (std::size_t s = 0; s < depth; ++s) send(s);

  auto last = start;
  while (!order.empty()) {
    std::size_t pos = order.size();
    while (pos == order.size()) {
      for (pos = 0; pos < order.size(); ++pos) {
        if (c.ready(order[pos], std::chrono::microseconds(0))) break;
      }
      if (pos == order.size()) c.ready(order.front(), std::chrono::microseconds(200));
    }
    const std::size_t s = order[pos];
    const auto t1 = Clock::now();
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(pos));
    last = t1;

    const double flops = c.flops(s);
    if (c.single(s)) ++ph.single_kind;
    const double v0 = tr.enabled() ? tr.now_us() : 0.0;
    const bool ok = c.finish(s);
    if (tr.enabled()) {
      const auto id = static_cast<std::int64_t>(req[s]);
      const int lane = 2 + static_cast<int>(s);
      const std::uint64_t r = tr.add(std::string("request.") + c.kind(s), "serve",
                                     tr.to_us(t0[s]), tr.to_us(t1), 0, id, lane);
      tr.add("client.submit", "serve", tr.to_us(t0[s]), submit_end_us[s], r, id, lane);
      tr.add("client.verify", "serve", v0, tr.now_us(), 0, id, 1);
    }
    ph.latency_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0[s]).count());
    ph.done_s.push_back(seconds_between(start, t1));
    ph.done_flops.push_back(ok ? flops : 0.0);
    ++ph.attempted;
    if (ok) {
      ph.flops += flops;
    } else {
      ++ph.failed;
    }
    if (t1 < deadline) send(s);
  }
  ph.seconds = seconds_between(start, last);
  const CpuTimes cpu1 = read_cpu_times();
  ph.busy = ratio(cpu1.busy - cpu0.busy, cpu1.total - cpu0.total);
  ph.steal = ratio(cpu1.steal - cpu0.steal, cpu1.total - cpu0.total);
  return ph;
}

// ---------------------------------------------------------------------------
// Layer timing

/// Times `f` repeatedly (one span per call) and returns the median in ms:
/// at least `min_reps` calls, then more until `budget_s` is spent or
/// `max_reps` is reached.
double time_median_ms(Tracer& tr, const std::string& name, std::uint64_t parent, int min_reps,
                      int max_reps, double budget_s, const std::function<void()>& f) {
  std::vector<double> ms;
  const auto start = Clock::now();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && seconds_between(start, Clock::now()) > budget_s) break;
    const double a = tr.now_us();
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    tr.add(name, "layer", a, tr.now_us(), parent);
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(ms);
}

struct MetricsSnapshot {
  std::uint64_t hits = 0, misses = 0, completed = 0, batches = 0, spgemm = 0, copy_us = 0,
                execute_us = 0;
};

MetricsSnapshot snapshot(const rrspmm::runtime::Metrics& m) {
  MetricsSnapshot s;
  s.hits = m.cache_hits.load();
  s.misses = m.cache_misses.load();
  s.completed = m.requests_completed.load();
  s.batches = m.batches_executed.load();
  s.spgemm = m.spgemm_batches.load();
  s.copy_us = m.submit_copy_us.load();
  s.execute_us = m.execute_us.load();
  return s;
}

/// One per-layer table row. `kind` is measured, derived, computed or count.
struct LayerRow {
  std::string name;
  double value;
  std::string unit;
  std::string kind;
  bool in_result;  ///< also reported on the result line
};

double plan_bytes(const ExecutionPlan& p) {
  double b = static_cast<double>((p.row_perm.size() + p.sparse_order.size()) * sizeof(index_t));
  for (const auto& panel : p.tiled.panels()) {
    b += static_cast<double>(panel.dense_cols.size() * sizeof(index_t) +
                             panel.dense_rowptr.size() * sizeof(rrspmm::offset_t) +
                             panel.dense_slot.size() * sizeof(index_t) +
                             panel.dense_val.size() * sizeof(value_t) +
                             panel.dense_src_idx.size() * sizeof(rrspmm::offset_t));
  }
  const CsrMatrix& sp = p.tiled.sparse_part();
  b += static_cast<double>(sp.rowptr().size() * sizeof(rrspmm::offset_t) +
                           sp.colidx().size() * sizeof(index_t) +
                           sp.values().size() * sizeof(value_t) +
                           p.tiled.sparse_src_idx().size() * sizeof(rrspmm::offset_t));
  return b;
}

void print_bytes_line(const char* what, double bytes, const Host& h) {
  std::printf("  %-22s %10.2f MB  (%.2fx L2, %.4fx L3)\n", what, bytes / 1e6,
              h.l2_bytes > 0 ? bytes / h.l2_bytes : 0.0, h.l3_bytes > 0 ? bytes / h.l3_bytes : 0.0);
}

// ---------------------------------------------------------------------------

int run(const Args& args, const std::vector<std::string>& scrubbed) {
  const Workload w = workload_by_name(args.workload);
  const Host host = describe_host();
#ifdef RRSPMM_HAVE_OPENMP
  omp_set_num_threads(static_cast<int>(host.threads));
#endif
  Tracer tr(args.trace);

  std::printf("== perfbench: %s, seed %llu, %.3g s, trace %d ==\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%u threads=%u L2=%.0f KiB L3=%.0f KiB isa=%s\n", host.nproc,
              host.threads, host.l2_bytes / 1024.0, host.l3_bytes / 1024.0, host.isa.c_str());
  std::printf("server: router=off zero_copy=on numa=off max_batch=8 mode=rr kernel=auto/no-fma/"
              "spec-rows\n");
  std::printf("env: %zu RRSPMM_* variable(s) removed before start%s", scrubbed.size(),
              scrubbed.empty() ? "\n" : ":");
  for (const std::string& n : scrubbed) std::printf(" %s", n.c_str());
  if (!scrubbed.empty()) std::printf("\n");
  std::fflush(stdout);

  // Inputs, untimed: the matrix file the set-up ingests.
  const fs::path dir = fs::path(args.work_dir) /
                       (w.name + "-" + std::to_string(args.seed) + "-" + std::to_string(getpid()));
  fs::create_directories(dir);
  struct Cleanup {
    fs::path p;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(p, ec);
    }
  } cleanup{dir};
  const std::string mtx = (dir / "A.mtx").string();
  {
    const CsrMatrix gen = generate(w, mix_seed(args.seed, static_cast<std::uint64_t>(w.kind)));
    rrspmm::sparse::write_matrix_market(gen, mtx);
  }
  const double file_mb = static_cast<double>(fs::file_size(mtx)) / 1e6;

  // Set-up, several times; the last server stays up for serving.
  SetupResult su = set_up(w, host, mtx, dir.string(), tr);
  Server& srv = *su.server;
  const CsrMatrix& A = su.matrix;
  const ExecutionPlan& plan = *su.plan;
  check_premise(w, plan, args.inject == "premise");
  const double setup_s = median(su.total_s);
  const double nnz = static_cast<double>(A.nnz());

  // Scalar references and operands, untimed.
  const simd::KernelConfig scalar = scalar_kernel();
  const std::uint64_t op_seed = mix_seed(args.seed, 100);
  std::vector<DenseMatrix> xs, refs;                // view SpMM operands
  DenseMatrix x_sddmm, y_sddmm, x_spmm, ref_spmm;   // owned attention operands
  std::vector<value_t> ref_sddmm;
  CsrMatrix ref_spgemm;
  double spgemm_flops = 0.0;
  std::unique_ptr<Client> client;
  switch (w.kind) {
    case Kind::clustered_spmm:
      for (std::uint64_t i = 0; i < 2; ++i) {
        DenseMatrix x = DenseMatrix::aligned(A.cols(), w.k_spmm);
        rrspmm::sparse::fill_random(x, op_seed + i);
        refs.push_back(spmm_reference(plan, A, x));
        xs.push_back(std::move(x));
      }
      if (args.inject == "mismatch") flip_low_bit(refs[0](0, 0));
      client = std::make_unique<ViewSpmmClient>(srv, w.depth, xs, refs,
                                                spmm_flops(nnz, static_cast<double>(w.k_spmm)));
      break;
    case Kind::scattered_attn:
      x_sddmm = DenseMatrix(A.cols(), w.k_sddmm);
      y_sddmm = DenseMatrix(A.rows(), w.k_sddmm);
      x_spmm = DenseMatrix(A.cols(), w.k_spmm);
      rrspmm::sparse::fill_random(x_sddmm, op_seed);
      rrspmm::sparse::fill_random(y_sddmm, op_seed + 1);
      rrspmm::sparse::fill_random(x_spmm, op_seed + 2);
      rrspmm::kernels::sddmm_rowwise(A, x_sddmm, y_sddmm, ref_sddmm, scalar);
      ref_spmm = spmm_reference(plan, A, x_spmm);
      if (args.inject == "mismatch") flip_low_bit(ref_sddmm.front());
      client = std::make_unique<OwnedAttnClient>(
          srv, x_sddmm, y_sddmm, ref_sddmm, x_spmm, ref_spmm,
          spmm_flops(nnz, static_cast<double>(w.k_sddmm)),
          spmm_flops(nnz, static_cast<double>(w.k_spmm)));
      break;
    case Kind::frontier_spgemm:
      ref_spgemm = rrspmm::spgemm::multiply(A, A);
      spgemm_flops = rrspmm::spgemm::symbolic(A, A).flops;
      if (args.inject == "mismatch") flip_low_bit(ref_spgemm.values().front());
      client = std::make_unique<SpgemmClient>(srv, w.depth, ref_spgemm, spgemm_flops);
      break;
  }

  // Workload header: operand and plan footprints against the caches.
  const double x_bytes = static_cast<double>(A.cols()) * w.k_spmm * sizeof(value_t);
  const double y_bytes = static_cast<double>(A.rows()) * w.k_spmm * sizeof(value_t);
  std::printf("workload: %s rows=%d cols=%d nnz=%lld file=%.2f MB depth=%zu K_spmm=%d "
              "K_sddmm=%d\n",
              w.name.c_str(), A.rows(), A.cols(), static_cast<long long>(A.nnz()), file_mb,
              w.depth, w.k_spmm, w.k_sddmm);
  std::printf("plan: round1=%d round2=%d dense_ratio=%.4f (before %.4f) clusters=%d+%d\n",
              plan.stats.round1_applied ? 1 : 0, plan.stats.round2_applied ? 1 : 0,
              plan.tiled.stats().dense_ratio(), plan.stats.dense_ratio_before,
              plan.stats.round1_clusters, plan.stats.round2_clusters);
  print_bytes_line("X (K_spmm)", x_bytes, host);
  print_bytes_line("Y (K_spmm)", y_bytes, host);
  print_bytes_line("plan", plan_bytes(plan), host);
  std::fflush(stdout);

  // Serving: a warm-up excluded from timing, then the timed phase. With
  // tracing, the timed phase runs half untraced and half traced.
  std::uint64_t seq = 0;
  Tracer off(false);
  const Phase warm = closed_loop(*client, std::min(1.0, args.seconds), off, seq);
  const MetricsSnapshot before = snapshot(srv.metrics());
  Phase main_ph = closed_loop(*client, args.trace ? args.seconds / 2 : args.seconds, off, seq);
  // A timed phase that lost more than kMaxSteal of the host's CPU time to
  // the hypervisor is measured once more, and the phase with less steal
  // is reported: the benchmark measures the program, not its neighbours.
  constexpr double kMaxSteal = 0.02;
  Phase retried;
  if (!args.trace && main_ph.steal > kMaxSteal) {
    retried = closed_loop(*client, args.seconds, off, seq);
    std::printf("timed phase lost %.1f%% to steal; measured again (%.1f%%)\n",
                100.0 * main_ph.steal, 100.0 * retried.steal);
    if (retried.steal < main_ph.steal) std::swap(main_ph, retried);
  }
  Phase traced_ph;
  if (args.trace) traced_ph = closed_loop(*client, args.seconds / 2, tr, seq);
  const MetricsSnapshot after = snapshot(srv.metrics());

  const std::uint64_t attempted =
      warm.attempted + main_ph.attempted + retried.attempted + traced_ph.attempted;
  const std::uint64_t failed = warm.failed + main_ph.failed + retried.failed + traced_ph.failed;
  const LatencySummary lat = summarize(main_ph.latency_ms);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("\nend-to-end (%s, tracing off, %.3f s timed after %.3f s warm-up):\n",
              w.name.c_str(), main_ph.seconds, warm.seconds);
  {
    const std::vector<double> r = window_rates(main_ph.done_s, main_ph.done_flops, main_ph.seconds, 1.0);
    std::printf("  %-20s %14.6f GFLOP/s (median of %zu windows, min %.6f max %.6f; overall %.6f)\n",
                "throughput_gflops", main_ph.gflops(), r.size(),
                r.empty() ? 0.0 : *std::min_element(r.begin(), r.end()) / 1e9,
                r.empty() ? 0.0 : *std::max_element(r.begin(), r.end()) / 1e9,
                main_ph.seconds > 0.0 ? main_ph.flops / main_ph.seconds / 1e9 : 0.0);
  }
  std::printf("  %-20s %14.6f ms\n", "latency_p50_ms", lat.p50);
  std::printf("  %-20s %14.6f ms\n", "latency_p95_ms", lat.p95);
  std::printf("  %-20s %14.6f ms   (%zu samples, %zu beyond p99%s)\n", "latency_p99_ms", lat.p99,
              lat.count, lat.beyond_p99, lat.beyond_p99 < 10 ? " -- TOO FEW" : "");
  std::printf("  %-20s %14.6f s    (median of %d set-ups, min %.6f max %.6f)\n", "setup_s",
              setup_s, w.setup_reps, *std::min_element(su.total_s.begin(), su.total_s.end()),
              *std::max_element(su.total_s.begin(), su.total_s.end()));
  std::printf("  %-20s %14.6f ratio (%llu failed of %llu attempted)\n", "failed_frac",
              failed_fraction(failed, attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  %-20s %14.6f MB\n", "peak_rss_mb", peak_rss_mb);
  std::printf("host while timed: %.1f%% busy, %.1f%% stolen by the hypervisor (/proc/stat)\n",
              100.0 * main_ph.busy, 100.0 * main_ph.steal);

  std::vector<Metric> result;
  if (!args.trace) {
    result = {{"throughput_gflops", main_ph.gflops(), "GFLOP/s"},
              {"latency_p50_ms", lat.p50, "ms"},
              {"latency_p95_ms", lat.p95, "ms"},
              {"setup_s", setup_s, "s"},
              {"peak_rss_mb", peak_rss_mb, "MB"}};
  } else {
    const LatencySummary tlat = summarize(traced_ph.latency_ms);
    std::printf("\ntracing overhead (same process, untraced half vs traced half):\n");
    std::printf("  throughput %.6f -> %.6f GFLOP/s (%+.2f%%), p50 %.6f -> %.6f ms (%+.2f%%)\n",
                main_ph.gflops(), traced_ph.gflops(),
                100.0 * (ratio(traced_ph.gflops(), main_ph.gflops()) - 1.0), lat.p50, tlat.p50,
                100.0 * (ratio(tlat.p50, lat.p50) - 1.0));

    // Per-layer timings on the workload's own inputs and warm plan.
    std::vector<LayerRow> rows;
    const auto add = [&rows](std::string n, double v, std::string u, std::string k, bool r = true) {
      rows.push_back({std::move(n), v, std::move(u), std::move(k), r});
    };
    const std::uint64_t layers = tr.open("layers", "layer");
    const rrspmm::core::PipelineConfig pcfg = server_config(host).pipeline;
    rrspmm::runtime::WorkerPool& pool = srv.pool();
    const simd::KernelConfig kcfg = pinned_kernel();

    const double ingest_s = median(su.ingest_s);
    add("io.ingest_s", ingest_s, "s", "measured");
    add("io.ingest_mb_per_s", file_mb / ingest_s, "MB/s", "derived");

    ExecutionPlan built;
    const double build_ms = time_median_ms(tr, "core.build_plan", layers, 3, 3, 0.0, [&] {
      built = rrspmm::core::build_plan(A, pcfg);
    });
    const auto& st = built.stats;
    add("lsh.sig_ms", st.sig_ms, "ms", "measured");
    add("lsh.band_ms", st.band_ms, "ms", "measured");
    add("lsh.score_ms", st.score_ms, "ms", "measured");
    add("lsh.candidate_pairs",
        static_cast<double>(st.round1_candidates + st.round2_candidates), "count", "count");
    add("cluster.merge_ms", st.merge_ms, "ms", "measured");
    add("cluster.clusters", static_cast<double>(st.round1_clusters + st.round2_clusters), "count",
        "count");

    const CsrMatrix permuted = rrspmm::sparse::permute_rows(A, plan.row_perm);
    add("aspt.build_ms", time_median_ms(tr, "aspt.build_aspt", layers, 5, 21, 1.0, [&] {
          const auto t = rrspmm::aspt::build_aspt(permuted, pcfg.aspt);
          if (t.rows() != permuted.rows()) throw std::logic_error("aspt shape");
        }), "ms", "measured");
    add("aspt.dense_ratio", plan.tiled.stats().dense_ratio(), "ratio", "count");
    add("specialize.ms", time_median_ms(tr, "specialize.specialize_plan", layers, 5, 51, 0.5, [&] {
          const auto s = simd::specialize_plan(plan.tiled);
          if (s.total_rows() > static_cast<std::uint64_t>(plan.tiled.rows())) {
            throw std::logic_error("specialize rows");
          }
        }), "ms", "measured");
    add("core.build_plan_s", build_ms / 1000.0, "s", "measured");

    const std::string fp = rrspmm::core::matrix_fingerprint(A);
    constexpr int kGets = 200;
    const double get_ms = time_median_ms(tr, "plan_cache.get x200", layers, 11, 11, 0.0, [&] {
      for (int i = 0; i < kGets; ++i) {
        if (!srv.plan_cache().get(fp, A, rrspmm::runtime::PlanMode::rr)) {
          throw std::logic_error("plan cache miss");
        }
      }
    });
    add("plan_cache.get_hit_us", get_ms * 1000.0 / kGets, "us", "measured");
    const double gets = static_cast<double>((after.hits - before.hits) + (after.misses - before.misses));
    const double hit_ratio = ratio(static_cast<double>(after.hits - before.hits), gets);
    add("plan_cache.hit_ratio", hit_ratio, "ratio", "count", false);

    // Server counters over the timed phase (both halves).
    const double served = static_cast<double>(after.completed - before.completed);
    // SpMM executions are counted by the server; SDDMM and SpGEMM requests
    // always execute alone, so each is one execution.
    const double executions = static_cast<double>((after.batches - before.batches) +
                                                  main_ph.single_kind + traced_ph.single_kind);
    const double copy_us = ratio(static_cast<double>(after.copy_us - before.copy_us), served);
    const double exec_us = ratio(static_cast<double>(after.execute_us - before.execute_us), served);
    std::vector<double> all_lat = main_ph.latency_ms;
    all_lat.insert(all_lat.end(), traced_ph.latency_ms.begin(), traced_ph.latency_ms.end());
    const double mean_lat_us = summarize(all_lat).mean * 1000.0;
    const double batch_mean = ratio(served, executions);
    add("server.copy_us_per_req", copy_us, "us", "measured", false);
    add("server.execute_us_per_req", exec_us, "us", "measured", false);
    add("server.wait_us_per_req", derived_wait_us(mean_lat_us, copy_us, exec_us), "us", "derived");
    add("server.batch_size_mean", batch_mean, "count", "derived", false);

    // execute: the serving runtime's panel-parallel entry points (views).
    DenseMatrix xk = DenseMatrix::aligned(A.cols(), w.k_spmm);
    rrspmm::sparse::fill_random(xk, op_seed + 7);
    DenseMatrix yk(A.rows(), w.k_spmm);
    DenseMatrix xs_k = DenseMatrix::aligned(A.cols(), w.k_sddmm);
    DenseMatrix ys_k = DenseMatrix::aligned(A.rows(), w.k_sddmm);
    rrspmm::sparse::fill_random(xs_k, op_seed + 8);
    rrspmm::sparse::fill_random(ys_k, op_seed + 9);
    std::vector<value_t> sd_out(static_cast<std::size_t>(A.nnz()));
    const double exec_spmm = time_median_ms(tr, "execute.parallel_spmm", layers, 5, 41, 1.0, [&] {
      rrspmm::runtime::parallel_spmm(pool, plan, DenseView(xk), DenseMutView(yk), nullptr, &kcfg);
    });
    const double exec_sddmm = time_median_ms(tr, "execute.parallel_sddmm", layers, 5, 41, 1.0, [&] {
      rrspmm::runtime::parallel_sddmm(pool, plan, A, DenseView(xs_k), DenseView(ys_k),
                                      sd_out.data(), sd_out.size(), nullptr, &kcfg);
    });
    DenseMatrix yperm(plan.tiled.rows(), w.k_spmm);
    rrspmm::kernels::spmm_aspt(plan.tiled, xk, yperm, &plan.sparse_order, kcfg);
    DenseMatrix unperm;
    const double scatter = time_median_ms(tr, "execute.unpermute_dense_rows", layers, 5, 41, 0.5, [&] {
      unperm = rrspmm::sparse::unpermute_dense_rows(yperm, plan.row_perm);
    });

    // kernels: the bare host kernels (OpenMP) at the same widths.
    const double rowwise = time_median_ms(tr, "kernels.spmm_rowwise", layers, 5, 41, 1.0, [&] {
      rrspmm::kernels::spmm_rowwise(A, xk, yk, kcfg);
    });
    const double aspt_ms = time_median_ms(tr, "kernels.spmm_aspt", layers, 5, 41, 1.0, [&] {
      rrspmm::kernels::spmm_aspt(plan.tiled, xk, yperm, &plan.sparse_order, kcfg);
    });
    const double sparse_ms = time_median_ms(tr, "kernels.spmm_rowwise.sparse_part", layers, 5, 41,
                                            1.0, [&] {
      rrspmm::kernels::spmm_rowwise(plan.tiled.sparse_part(), xk, yperm, kcfg);
    });
    std::vector<value_t> sd_vec;
    const double sddmm_aspt = time_median_ms(tr, "kernels.sddmm_aspt", layers, 5, 41, 1.0, [&] {
      rrspmm::kernels::sddmm_aspt(plan.tiled, xs_k, ys_k, sd_vec, &plan.sparse_order, kcfg);
    });
    const double sddmm_row = time_median_ms(tr, "kernels.sddmm_rowwise", layers, 5, 41, 1.0, [&] {
      rrspmm::kernels::sddmm_rowwise(A, xs_k, ys_k, sd_vec, kcfg);
    });
    add("execute.spmm_ms", exec_spmm, "ms", "measured");
    add("execute.sddmm_ms", exec_sddmm, "ms", "measured");
    add("execute.scatter_ms", scatter, "ms", "measured");
    add("execute.overhead_ms", derived_execute_overhead_ms(exec_spmm, aspt_ms, scatter), "ms",
        "derived");
    add("kernels.rowwise_ms", rowwise, "ms", "measured");
    add("kernels.aspt_ms", aspt_ms, "ms", "measured");
    add("kernels.sparse_phase_ms", sparse_ms, "ms", "measured");
    add("kernels.dense_phase_ms", derived_dense_phase_ms(aspt_ms, sparse_ms), "ms", "derived");
    add("kernels.aspt_over_rowwise", ratio(aspt_ms, rowwise), "ratio", "derived");
    add("kernels.sddmm_ms", sddmm_aspt, "ms", "measured");
    add("kernels.sddmm_rowwise_ms", sddmm_row, "ms", "measured");
    add("kernels.flops", spmm_flops(nnz, static_cast<double>(w.k_spmm)), "count", "count");
    add("kernels.computed_mb",
        computed_spmm_bytes(A.rows(), A.cols(), nnz, w.k_spmm, sizeof(index_t),
                            sizeof(rrspmm::offset_t), sizeof(value_t)) / 1e6,
        "MB", "computed");

    // spgemm: A*A on every workload's matrix (the serving workload is
    // frontier_spgemm; elsewhere this is a cross-check that it stays put).
    const int sg_min = w.kind == Kind::frontier_spgemm ? 5 : 1;
    rrspmm::spgemm::SymbolicResult sym;
    const double sym_ms = time_median_ms(tr, "spgemm.symbolic", layers, sg_min, 21, 1.0, [&] {
      sym = rrspmm::spgemm::symbolic(A, A);
    });
    CsrMatrix c_seq, c_par;
    const double mul_ms = time_median_ms(tr, "spgemm.multiply", layers, sg_min, 21, 1.0, [&] {
      c_seq = rrspmm::spgemm::multiply(A, A);
    });
    rrspmm::runtime::Metrics sg_metrics;
    const double par_ms = time_median_ms(tr, "spgemm.parallel_spgemm", layers, sg_min, 21, 1.0, [&] {
      rrspmm::runtime::parallel_spgemm(pool, plan, A, A, c_par, &sg_metrics);
    });
    if (!same_bits(c_seq, c_par)) throw std::runtime_error("parallel_spgemm != multiply");
    const double hash_rows = static_cast<double>(sg_metrics.spgemm_rows_hash.load());
    const double sort_rows = static_cast<double>(sg_metrics.spgemm_rows_sort.load());
    add("spgemm.symbolic_ms", sym_ms, "ms", "measured");
    add("spgemm.multiply_ms", mul_ms, "ms", "measured");
    add("spgemm.parallel_ms", par_ms, "ms", "measured");
    add("spgemm.flops", sym.flops, "count", "count");
    add("spgemm.output_nnz", static_cast<double>(sym.nnz()), "count", "count");
    add("spgemm.hash_row_frac", ratio(hash_rows, hash_rows + sort_rows), "ratio", "count");
    tr.close(layers);

    std::printf("\nper-layer (%s; measured = timed call, derived = difference of measured, "
                "computed = from array sizes):\n", w.name.c_str());
    for (const LayerRow& r : rows) {
      std::printf("  %-28s %16.6f %-6s %s%s\n", r.name.c_str(), r.value, r.unit.c_str(),
                  r.kind.c_str(), r.in_result ? "" : "  (report only)");
      if (r.in_result) result.push_back({r.name, r.value, r.unit});
    }
    std::printf("\nspan self time (trace spans, ms):\n  %-34s %8s %14s %14s\n", "span", "count",
                "total_ms", "self_ms");
    for (const SelfTimeRow& r : self_times(tr.spans())) {
      std::printf("  %-34s %8zu %14.3f %14.3f\n", r.name.c_str(), r.count, r.total_ms, r.self_ms);
    }
    if (hit_ratio != 1.0) throw premise_failed("plan cache missed while serving");
    if (batch_mean != 1.0) throw premise_failed("a request joined a coalesced batch");
    if (!args.trace_file.empty()) {
      fs::create_directories(fs::path(args.trace_file).parent_path());
      std::ofstream out(args.trace_file, std::ios::trunc);
      out << chrome_trace_json(tr.spans()) << '\n';
      if (!out) throw std::runtime_error("cannot write " + args.trace_file);
      std::printf("wrote %s (%zu spans)\n", args.trace_file.c_str(), tr.spans().size());
    }
  }

  const bool correct = failed == 0;
  std::printf("%s\n", result_line(correct, attempted, failed, result).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::vector<std::string> scrubbed = perfbench::scrub_library_env();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv), scrubbed);
  } catch (const perfbench::premise_failed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
