// Concurrent SpMM/SDDMM serving engine.
//
// A Server owns a registry of named sparse matrices, a PlanCache, and a
// WorkerPool. Clients call submit() from any thread and get a future for
// the product; the server amortises the paper's expensive preprocessing
// through the plan cache and executes each request panel-parallel.
//
// One request, one execution: each registered matrix has a FIFO queue
// and at most one drain task, which runs the queued SpMM requests one at
// a time, each panel-parallel straight on its own operands. The plan
// cache is what amortises the paper's preprocessing across requests.
// Queued requests are not coalesced into one multi-K SpMM: the serial
// copies that gather their operands and scatter the product cost more
// than the shared sparse traversal saves. Measured on the perfbench
// generators, coalesced service ran at 0.20–0.83x the requests per
// second wherever batches formed (EXPERIMENTS.md, "Coalescing vs one
// request per execution").
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "router/router.hpp"
#include "runtime/execute.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/worker_pool.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::runtime {

namespace topo {
/// The type of the unread ServerConfig::numa field.
enum class NumaMode { off };
}  // namespace topo

/// Thrown by submit()/submit_sddmm() once stop() has begun: the server no
/// longer accepts work, but everything admitted before the stop still
/// completes.
class server_stopped : public std::runtime_error {
 public:
  explicit server_stopped(const std::string& what) : std::runtime_error(what) {}
};

/// Recovery policy for execution failures. Defaults are a single
/// attempt and no degradation — identical behavior to a server without a
/// recovery layer. Every recovery path re-executes through the same plan,
/// so recovered results stay bitwise-equal to a fault-free run.
struct RetryPolicy {
  /// Total execution attempts per request (>= 1). Attempt n > 1 sleeps
  /// min(backoff_base * backoff_multiplier^(n-2), backoff_cap) first.
  int max_attempts = 1;
  std::chrono::microseconds backoff_base{500};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds backoff_cap{50000};
  /// After the last failed attempt, run each request sequentially
  /// through core::run_spmm / core::run_sddmm on the caller's views
  /// instead of failing it.
  bool degrade_to_single_device = false;
};

struct ServerConfig {
  unsigned threads = 0;                  ///< worker count; 0 → default_threads()
  std::size_t plan_cache_capacity = 32;
  PlanMode mode = PlanMode::rr;          ///< how plans are built
  /// Unread: every request executes alone. The field stays only while
  /// perfbench assigns it.
  std::size_t max_batch = 8;
  core::PipelineConfig pipeline;
  /// Execution seam (see runtime::Executor); null, the default, runs the
  /// built-in panel-parallel path. The library ships no executor: the
  /// field stays only while perfbench assigns it.
  std::shared_ptr<Executor> executor;
  RetryPolicy retry;
  /// SpGEMM accumulator policy for submit_spgemm requests. The choice
  /// never affects result bits, only speed; the degraded path always
  /// runs the sequential sort-based accumulator with probes off.
  spgemm::SpgemmConfig spgemm;
  /// SIMD kernel selection for the built-in panel-parallel path; nullopt
  /// uses the process-wide simd::active_config() (the RRSPMM_KERNEL_ISA
  /// env knob). A configured Executor owns its own kernel choice.
  std::optional<kernels::simd::KernelConfig> kernel;
  /// Adaptive-execution router. The default consults RRSPMM_ROUTER
  /// (off/on) via router::from_env(); null keeps every decision
  /// static, exactly the pre-router behaviour. When set, the server asks
  /// it per request for the kernel variant (specialization mode,
  /// sequential fallback) and the SpGEMM accumulator, and feeds measured
  /// latency back through observe(). Every arm is one of the existing
  /// bitwise-guarded paths, so routing never changes result bits. Only
  /// the built-in panel-parallel path is routed (a configured Executor
  /// owns its own kernel choice).
  std::shared_ptr<router::Router> router = router::from_env();
  /// Borrow caller buffers in the view-based submit overloads instead of
  /// copying (default on). Misaligned views fall back to the owned-copy
  /// path either way — the field and the gate choose between two
  /// bitwise-identical executions.
  bool zero_copy = true;
  /// Unread: the runtime does no NUMA placement. The field stays only
  /// while perfbench assigns it.
  topo::NumaMode numa = topo::NumaMode::off;
};

class Server {
 public:
  explicit Server(ServerConfig cfg = {});

  /// Waits for all in-flight requests, then stops the pool.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers `m` under `name` (fingerprinted once, here). Throws
  /// invalid_matrix if the name is taken.
  void register_matrix(const std::string& name, sparse::CsrMatrix m);

  bool has_matrix(const std::string& name) const;
  std::vector<std::string> matrix_names() const;

  /// Builds (or fetches) the plan for `name` synchronously — call after
  /// register_matrix to pay the preprocessing cost before traffic
  /// arrives.
  PlanPtr warm(const std::string& name);

  /// Owned SpMM: the future resolves to Y = S_name * x (x is
  /// S.cols() x K, the result S.rows() x K). A thin wrapper over the view
  /// path: `x` moves into server-held storage, which also receives the
  /// result (allocated by the worker that runs the request); the request
  /// counts in neither zero-copy counter.
  std::future<sparse::DenseMatrix> submit(const std::string& name, sparse::DenseMatrix x);

  /// Zero-copy SpMM: the server reads `x` and writes the product
  /// directly into `y` (pre-shaped S.rows() x x.cols); the future
  /// resolves once `y` is fully written. Both buffers must stay alive —
  /// and `y` untouched by the caller — until then. Shape mismatches throw
  /// here, synchronously; plan-build failures arrive through the future.
  /// Views whose base pointer is not kDenseAlignBytes-aligned (or a
  /// server with zero_copy off) take the copy fallback: `x` is copied
  /// into aligned server-held storage (counted in zero_copy_fallbacks /
  /// submit_copy_us), and the result still lands straight in `y`.
  /// Thread-safe.
  std::future<void> submit(const std::string& name, sparse::DenseView x,
                           sparse::DenseMutView y);

  /// Owned SDDMM: a thin wrapper over the view path that moves both
  /// operands into server-held storage and resolves to the nnz-long
  /// result.
  std::future<std::vector<value_t>> submit_sddmm(const std::string& name, sparse::DenseMatrix x,
                                                 sparse::DenseMatrix y);

  /// Zero-copy SDDMM: out[j] = S.values()[j] * <y row i, x row c> per
  /// nonzero, aligned with the registered matrix's CSR order, written
  /// straight into out[0..out_size), which must be exactly S.nnz() long.
  /// Same lifetime and alignment rules as the zero-copy submit() (the
  /// fallback copies both operands); out itself has no alignment
  /// requirement (the kernels write it scalar-wise). Each SDDMM request
  /// runs as its own pool task, outside the matrix's SpMM queue.
  std::future<void> submit_sddmm(const std::string& name, sparse::DenseView x,
                                 sparse::DenseView y, value_t* out, std::size_t out_size);

  /// Enqueues an SpGEMM request between two registered matrices: the
  /// future resolves to C = S_a * S_b in CSR, C in S_a's row order. The
  /// plan (and so the paper's reordering) is built on the LEFT operand
  /// and drives numeric-phase locality; results are bitwise-identical
  /// across accumulator choice, thread count, and the retry/degradation
  /// path. Each request runs as its own pool task, like SDDMM.
  std::future<sparse::CsrMatrix> submit_spgemm(const std::string& a_name,
                                               const std::string& b_name);

  /// Blocks until every submitted request has completed.
  void wait_idle();

  /// Stops accepting new requests and drains everything already
  /// admitted — including requests still queued per matrix — before
  /// returning. A submit() racing with stop() either gets its
  /// future (and the request completes) or throws server_stopped;
  /// nothing is dropped half-way. Idempotent; called by the destructor
  /// before the worker pool joins.
  void stop();

  /// True once stop() has begun.
  bool stopped() const;

  const Metrics& metrics() const { return metrics_; }
  std::string metrics_json() const { return metrics_.to_json(); }

  WorkerPool& pool() { return pool_; }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  using Clock = std::chrono::steady_clock;
  /// A request's single completion step: resolves its future — with the
  /// result on a null argument, else with the failure.
  using Completion = std::function<void(std::exception_ptr)>;

  /// Server-held request storage: the owned API's operands and result,
  /// or the aligned operand copies of a view request that could not be
  /// borrowed.
  struct Held {
    sparse::DenseMatrix x, y;
    std::vector<value_t> out;  ///< owned SDDMM result
  };

  /// y = S * x. The views point at caller memory or into `held`. The
  /// owned API's y has its shape but no storage until the drain
  /// allocates held->y.
  struct SpmmRequest {
    sparse::DenseView x;
    sparse::DenseMutView y;
    std::shared_ptr<Held> held;
    Completion done;
    Clock::time_point t0;
  };

  /// out = SDDMM(S, x, y); the same view/storage split as SpmmRequest
  /// (the owned API's `out` stays null until the pool task allocates it).
  struct SddmmRequest {
    sparse::DenseView x, y;
    value_t* out = nullptr;
    std::size_t out_size = 0;
    std::shared_ptr<Held> held;
    Completion done;
    Clock::time_point t0;
  };

  struct Registered {
    sparse::CsrMatrix matrix;
    std::string fingerprint;
    std::mutex m;                       ///< guards queue + drain_scheduled
    std::deque<SpmmRequest> queue;
    bool drain_scheduled = false;
  };

  Registered& entry(const std::string& name) const;
  PlanPtr plan_of(Registered& e);
  /// Bumps the serving-scoped router counters for a routed decision.
  void count_decision(const router::Decision& dec);
  /// Feeds a measured latency back to the router; no-op for unrouted
  /// decisions.
  void observe_route(Registered& e, router::Workload w, index_t k,
                     const router::Decision& dec, double us);
  /// The SIMD configuration a decision selects: cfg_.kernel when
  /// unrouted, else the server's choice with the arm's spec mode applied
  /// (spec_mode 0 keeps the configured mode).
  std::optional<kernels::simd::KernelConfig> kernel_for(const router::Decision& dec) const;
  /// Gate every admission through: throws server_stopped after stop()
  /// has begun, otherwise counts the request as in flight. The check and
  /// the increment are one critical section, so stop() can never observe
  /// an idle server while an admitted request is still untracked.
  /// `prepare` (the zero-copy gate) runs only once admitted; if it
  /// throws, the in-flight count is returned before the rethrow.
  void admit(const std::function<void()>& prepare = {});
  /// Zero-copy gate of an admitted view request: counts it and, when
  /// zero_copy is off or a view is misaligned, returns aligned
  /// server-held copies of `x` (and of `y` when `y_is_operand`), timed
  /// as submit_copy_us. Null: the request borrows the caller's memory.
  std::shared_ptr<Held> gate(sparse::DenseView x, sparse::DenseView y, bool y_is_operand);
  /// Admits the request, queues it, and schedules the matrix's drain
  /// task if one is not already running.
  void enqueue_spmm(Registered& e, SpmmRequest req);
  /// Admits the request and runs it as one pool task.
  void enqueue_sddmm(Registered& e, SddmmRequest req);
  /// Runs the matrix's queued SpMM requests one at a time, in FIFO
  /// order, until the queue is empty.
  void drain(Registered& e);
  /// One execution attempt: fetch the plan, run the request on its
  /// views. Touches no completion state, so a failed attempt is fully
  /// retryable.
  void execute_spmm(Registered& e, const SpmmRequest& r);
  void execute_sddmm(Registered& e, const SddmmRequest& r);
  sparse::CsrMatrix execute_spgemm(Registered& ea, Registered& eb);
  /// The cfg_.retry recovery loop every request kind runs through: up to
  /// max_attempts of `attempt` with capped exponential backoff between
  /// them, then — with degrade_to_single_device — one run of `degrade`,
  /// the sequential path through the same plan (bitwise-equal). Input
  /// errors (invalid_matrix) are never retried. Throws only when every
  /// avenue fails.
  void with_recovery(const std::function<void()>& attempt,
                     const std::function<void()>& degrade);
  /// Bumps the completion metrics, then resolves the future: a client
  /// that observed its future ready always sees itself counted.
  void complete(const Completion& done, Clock::time_point t0, std::exception_ptr err);
  void finish_requests(std::size_t n);
  /// Dispatch through cfg_.executor when set, else the built-in
  /// panel-parallel path with `kernel` (see kernel_for). Both sides keep
  /// the bitwise-equality contract.
  void exec_spmm(const core::ExecutionPlan& plan, sparse::DenseView x, sparse::DenseMutView y,
                 const std::optional<kernels::simd::KernelConfig>& kernel);
  void exec_sddmm(const core::ExecutionPlan& plan, const sparse::CsrMatrix& m,
                  sparse::DenseView x, sparse::DenseView y, value_t* out,
                  std::size_t out_size,
                  const std::optional<kernels::simd::KernelConfig>& kernel);
  void exec_spgemm(const core::ExecutionPlan& plan, const sparse::CsrMatrix& a,
                   const sparse::CsrMatrix& b, sparse::CsrMatrix& c,
                   const spgemm::SpgemmConfig& cfg);

  ServerConfig cfg_;
  Metrics metrics_;
  PlanCache plan_cache_;

  mutable std::mutex reg_m_;
  std::unordered_map<std::string, std::unique_ptr<Registered>> registry_;

  mutable std::mutex idle_m_;
  std::condition_variable idle_cv_;
  std::uint64_t inflight_ = 0;   ///< submitted - completed, under idle_m_
  bool accepting_ = true;        ///< cleared by stop(), under idle_m_

  // Last member on purpose: destroyed first, which joins the workers (a
  // drain task touches the registry and idle state even after its final
  // request completes, so everything it uses must outlive the pool).
  WorkerPool pool_;
};

}  // namespace rrspmm::runtime
