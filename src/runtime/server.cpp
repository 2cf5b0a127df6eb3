#include "runtime/server.hpp"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"

namespace rrspmm::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Backoff before retry attempt n (n >= 1): base * multiplier^(n-1), capped.
std::chrono::microseconds retry_delay(const RetryPolicy& rp, int attempt) {
  double us = static_cast<double>(rp.backoff_base.count());
  for (int i = 1; i < attempt; ++i) us *= rp.backoff_multiplier;
  const double cap = static_cast<double>(rp.backoff_cap.count());
  if (us > cap) us = cap;
  if (us < 0) us = 0;
  return std::chrono::microseconds(static_cast<long long>(us));
}

// Owned aligned copy of a borrowed view — the fallback's copy-in.
sparse::DenseMatrix materialize(sparse::DenseView v) {
  sparse::DenseMatrix m = sparse::DenseMatrix::aligned(v.rows, v.cols);
  for (index_t i = 0; i < v.rows; ++i) {
    const value_t* src = v.row(i);
    std::copy(src, src + v.cols, m.row(i).data());
  }
  return m;
}

void add_us(std::atomic<std::uint64_t>& counter, Clock::time_point t0) {
  const double us = micros_since(t0);
  counter.fetch_add(us > 0 ? static_cast<std::uint64_t>(us) : 0, std::memory_order_relaxed);
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      plan_cache_(PlanCacheConfig{cfg_.plan_cache_capacity, cfg_.pipeline}, &metrics_),
      pool_(cfg_.threads) {}

Server::~Server() {
  // Drain before the member destructors run: the pool must not start
  // joining while admitted requests are still queued behind a drain task.
  stop();
}

void Server::admit(const std::function<void()>& prepare) {
  {
    std::lock_guard<std::mutex> lk(idle_m_);
    if (!accepting_) throw server_stopped("Server: stopped, no longer accepting requests");
    ++inflight_;
  }
  if (prepare) {
    try {
      prepare();
    } catch (...) {
      finish_requests(1);
      throw;
    }
  }
  // Stall-only: widens the window between admission and queueing so the
  // stop()-race tests can pin a request inside it. A throw here would
  // leak the inflight_ count taken above.
  fault::hit_nothrow(fault::points::kServerSubmit);
  metrics_.requests_submitted.fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<Server::Held> Server::gate(sparse::DenseView x, sparse::DenseView y,
                                           bool y_is_operand) {
  metrics_.zero_copy_requests.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.zero_copy && x.zero_copy_eligible() && y.zero_copy_eligible()) return nullptr;
  // Misaligned caller (or zero-copy switched off): copy the operands the
  // kernels read. Results still land in the caller's buffers, so the two
  // paths are interchangeable bit-for-bit.
  metrics_.zero_copy_fallbacks.fetch_add(1, std::memory_order_relaxed);
  const auto c0 = Clock::now();
  auto held = std::make_shared<Held>();
  held->x = materialize(x);
  if (y_is_operand) held->y = materialize(y);
  add_us(metrics_.submit_copy_us, c0);
  return held;
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(idle_m_);
    accepting_ = false;
  }
  // Every request admitted before the flag flipped is counted in
  // inflight_ (admit() holds the same lock), so this wait returns only
  // once all of them — including requests a drain task has yet to pick
  // up — have resolved their futures.
  wait_idle();
}

bool Server::stopped() const {
  std::lock_guard<std::mutex> lk(idle_m_);
  return !accepting_;
}

void Server::register_matrix(const std::string& name, sparse::CsrMatrix m) {
  auto reg = std::make_unique<Registered>();
  reg->fingerprint = core::matrix_fingerprint(m);
  reg->matrix = std::move(m);
  std::lock_guard<std::mutex> lk(reg_m_);
  if (!registry_.emplace(name, std::move(reg)).second) {
    throw sparse::invalid_matrix("Server: matrix name already registered: " + name);
  }
}

bool Server::has_matrix(const std::string& name) const {
  std::lock_guard<std::mutex> lk(reg_m_);
  return registry_.count(name) > 0;
}

std::vector<std::string> Server::matrix_names() const {
  std::lock_guard<std::mutex> lk(reg_m_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, reg] : registry_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Server::Registered& Server::entry(const std::string& name) const {
  std::lock_guard<std::mutex> lk(reg_m_);
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    throw sparse::invalid_matrix("Server: unknown matrix: " + name);
  }
  // Entries are never erased, so the reference stays valid unlocked.
  return *it->second;
}

PlanPtr Server::plan_of(Registered& e) {
  return plan_cache_.get(e.fingerprint, e.matrix, cfg_.mode);
}

PlanPtr Server::warm(const std::string& name) { return plan_of(entry(name)); }

std::future<void> Server::submit(const std::string& name, sparse::DenseView x,
                                 sparse::DenseMutView y) {
  Registered& e = entry(name);
  if (!x.valid() || !y.valid()) {
    throw sparse::invalid_matrix("Server::submit: invalid dense view");
  }
  if (x.rows != e.matrix.cols() || y.rows != e.matrix.rows() || y.cols != x.cols) {
    throw sparse::invalid_matrix("Server::submit: view shapes do not match the matrix");
  }
  auto p = std::make_shared<std::promise<void>>();
  std::future<void> fut = p->get_future();
  enqueue_spmm(e, SpmmRequest{x, y, nullptr,
                              [p](std::exception_ptr err) {
                                err ? p->set_exception(err) : p->set_value();
                              },
                              Clock::now()});
  return fut;
}

std::future<sparse::DenseMatrix> Server::submit(const std::string& name, sparse::DenseMatrix x) {
  Registered& e = entry(name);
  if (x.rows() != e.matrix.cols()) {
    throw sparse::invalid_matrix("Server::submit: X rows must equal S cols");
  }
  auto held = std::make_shared<Held>();
  held->x = std::move(x);
  auto p = std::make_shared<std::promise<sparse::DenseMatrix>>();
  std::future<sparse::DenseMatrix> fut = p->get_future();
  // y has its shape but no storage yet; the drain allocates held->y.
  const sparse::DenseMutView y(nullptr, e.matrix.rows(), held->x.cols(), held->x.cols());
  enqueue_spmm(e, SpmmRequest{held->x, y, held,
                              [p, held](std::exception_ptr err) {
                                err ? p->set_exception(err) : p->set_value(std::move(held->y));
                              },
                              Clock::now()});
  return fut;
}

void Server::enqueue_spmm(Registered& e, SpmmRequest req) {
  admit([&] {
    if (!req.held && (req.held = gate(req.x, req.y.as_const(), false))) req.x = req.held->x;
  });
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lk(e.m);
    e.queue.push_back(std::move(req));
    if (!e.drain_scheduled) {
      e.drain_scheduled = true;
      schedule = true;
    }
  }
  // One drain task per matrix at a time: it owns the queue until empty,
  // so same-matrix requests queued while it runs wait their turn instead
  // of spawning competing executions. (One pool task per request held
  // throughput but raised p50 and p95 on perfbench's clustered_spmm;
  // EXPERIMENTS.md, "Drain vs one pool task per request".)
  if (schedule) pool_.submit([this, &e] { drain(e); });
}

void Server::drain(Registered& e) {
  for (;;) {
    SpmmRequest r;
    {
      std::lock_guard<std::mutex> lk(e.m);
      if (e.queue.empty()) {
        e.drain_scheduled = false;
        return;
      }
      r = std::move(e.queue.front());
      e.queue.pop_front();
    }

    // Stall-only: pins the drain between pickup and execution, widening
    // the stop()-during-drain race window for the chaos tests.
    fault::hit_nothrow(fault::points::kServerDrain);

    std::exception_ptr err;
    try {
      // The owned API's result is allocated here, on the worker, and
      // left uninitialised: the kernels zero and fill every row they own,
      // so a zero-fill here would only add a serial pass over Y.
      if (r.held && r.y.data == nullptr) {
        r.held->y = sparse::DenseMatrix::uninitialized(r.y.rows, r.y.cols);
        r.y = r.held->y;
      }
      with_recovery([&] { execute_spmm(e, r); },
                    [&] { core::run_spmm(*plan_of(e), r.x, r.y); });
      metrics_.batches_executed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      err = std::current_exception();
    }
    complete(r.done, r.t0, err);
    finish_requests(1);
  }
}

void Server::execute_spmm(Registered& e, const SpmmRequest& r) {
  // The plan fetch is part of the attempt: a failed build drops its cache
  // entry, so a retry rebuilds instead of re-fetching the exception.
  const PlanPtr plan = plan_of(e);
  const auto t0 = Clock::now();
  parallel_spmm(pool_, *plan, r.x, r.y, &metrics_, cfg_.kernel ? &*cfg_.kernel : nullptr);
  add_us(metrics_.execute_us, t0);
}

void Server::with_recovery(const std::function<void()>& attempt,
                           const std::function<void()>& degrade) {
  const int max_attempts = std::max(1, cfg_.retry.max_attempts);
  for (int n = 0;; ++n) {
    try {
      if (n > 0) {
        metrics_.retries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(retry_delay(cfg_.retry, n));
      }
      attempt();
      return;
    } catch (const sparse::invalid_matrix&) {
      throw;  // deterministic input error: retrying cannot change it
    } catch (const fault::injected_fault&) {
      metrics_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      if (n + 1 >= max_attempts && !cfg_.retry.degrade_to_single_device) throw;
    } catch (...) {
      if (n + 1 >= max_attempts && !cfg_.retry.degrade_to_single_device) throw;
    }
    if (n + 1 >= max_attempts) break;
  }
  // Graceful degradation: retries exhausted, run the same plan
  // sequentially on this thread through core::run_* (same accumulation
  // order, so bitwise-equal results).
  metrics_.degradations.fetch_add(1, std::memory_order_relaxed);
  degrade();
}

std::future<void> Server::submit_sddmm(const std::string& name, sparse::DenseView x,
                                       sparse::DenseView y, value_t* out,
                                       std::size_t out_size) {
  Registered& e = entry(name);
  if (!x.valid() || !y.valid() || out == nullptr) {
    throw sparse::invalid_matrix("Server::submit_sddmm: invalid view or output buffer");
  }
  if (x.rows != e.matrix.cols() || y.rows != e.matrix.rows() || x.cols != y.cols) {
    throw sparse::invalid_matrix("Server::submit_sddmm: view shapes do not match the matrix");
  }
  if (out_size != static_cast<std::size_t>(e.matrix.nnz())) {
    throw sparse::invalid_matrix("Server::submit_sddmm: out must hold exactly nnz values");
  }
  auto p = std::make_shared<std::promise<void>>();
  std::future<void> fut = p->get_future();
  enqueue_sddmm(e, SddmmRequest{x, y, out, out_size, nullptr,
                                [p](std::exception_ptr err) {
                                  err ? p->set_exception(err) : p->set_value();
                                },
                                Clock::now()});
  return fut;
}

std::future<std::vector<value_t>> Server::submit_sddmm(const std::string& name,
                                                       sparse::DenseMatrix x,
                                                       sparse::DenseMatrix y) {
  Registered& e = entry(name);
  if (x.rows() != e.matrix.cols() || y.rows() != e.matrix.rows() || x.cols() != y.cols()) {
    throw sparse::invalid_matrix("Server::submit_sddmm: operand shapes do not match the matrix");
  }
  auto held = std::make_shared<Held>();
  held->x = std::move(x);
  held->y = std::move(y);
  auto p = std::make_shared<std::promise<std::vector<value_t>>>();
  std::future<std::vector<value_t>> fut = p->get_future();
  // `out` stays null until the pool task allocates it, as for SpMM's y.
  enqueue_sddmm(e, SddmmRequest{held->x, held->y, nullptr,
                                static_cast<std::size_t>(e.matrix.nnz()), held,
                                [p, held](std::exception_ptr err) {
                                  err ? p->set_exception(err)
                                      : p->set_value(std::move(held->out));
                                },
                                Clock::now()});
  return fut;
}

void Server::enqueue_sddmm(Registered& e, SddmmRequest req) {
  admit([&] {
    if (!req.held && (req.held = gate(req.x, req.y, true))) {
      req.x = req.held->x;
      req.y = req.held->y;
    }
  });
  auto r = std::make_shared<SddmmRequest>(std::move(req));
  pool_.submit([this, &e, r] {
    std::exception_ptr err;
    try {
      if (r->out == nullptr) {
        r->held->out.resize(r->out_size);
        r->out = r->held->out.data();
      }
      with_recovery([&] { execute_sddmm(e, *r); },
                    [&] {
                      core::run_sddmm(*plan_of(e), e.matrix, r->x, r->y, r->out, r->out_size);
                    });
    } catch (...) {
      err = std::current_exception();
    }
    complete(r->done, r->t0, err);
    finish_requests(1);
  });
}

void Server::execute_sddmm(Registered& e, const SddmmRequest& r) {
  const PlanPtr plan = plan_of(e);
  const auto t0 = Clock::now();
  parallel_sddmm(pool_, *plan, e.matrix, r.x, r.y, r.out, r.out_size, &metrics_,
                 cfg_.kernel ? &*cfg_.kernel : nullptr);
  add_us(metrics_.execute_us, t0);
}

std::future<sparse::CsrMatrix> Server::submit_spgemm(const std::string& a_name,
                                                     const std::string& b_name) {
  Registered& ea = entry(a_name);
  Registered& eb = entry(b_name);
  if (ea.matrix.cols() != eb.matrix.rows()) {
    throw sparse::invalid_matrix("Server::submit_spgemm: A cols must equal B rows");
  }
  auto p = std::make_shared<std::promise<sparse::CsrMatrix>>();
  std::future<sparse::CsrMatrix> fut = p->get_future();
  const auto t0 = Clock::now();
  admit();
  pool_.submit([this, &ea, &eb, p, t0] {
    sparse::CsrMatrix c;
    std::exception_ptr err;
    try {
      // Degraded: the sequential sort-based multiply with probes off, so
      // an armed fault plan cannot re-fire inside the fallback. Same
      // per-column accumulation order as every instrumented path —
      // bitwise equal (see spgemm/accumulators.hpp).
      with_recovery([&] { c = execute_spgemm(ea, eb); },
                    [&] {
                      metrics_.spgemm_degradations.fetch_add(1, std::memory_order_relaxed);
                      spgemm::SpgemmConfig degraded;
                      degraded.accumulator = spgemm::Accumulator::sort;
                      degraded.probes = false;
                      c = spgemm::multiply(ea.matrix, eb.matrix, degraded);
                    });
      metrics_.spgemm_batches.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      err = std::current_exception();
    }
    complete([&](std::exception_ptr e) { e ? p->set_exception(e) : p->set_value(std::move(c)); },
             t0, err);
    finish_requests(1);
  });
  return fut;
}

sparse::CsrMatrix Server::execute_spgemm(Registered& ea, Registered& eb) {
  const PlanPtr plan = plan_of(ea);
  sparse::CsrMatrix c;
  const auto t0 = Clock::now();
  parallel_spgemm(pool_, *plan, ea.matrix, eb.matrix, c, &metrics_, cfg_.spgemm);
  add_us(metrics_.execute_us, t0);
  return c;
}

void Server::complete(const Completion& done, Clock::time_point t0, std::exception_ptr err) {
  (err ? metrics_.requests_failed : metrics_.requests_completed)
      .fetch_add(1, std::memory_order_relaxed);
  metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  metrics_.latency.record(seconds_since(t0));
  done(err);
}

void Server::finish_requests(std::size_t n) {
  std::lock_guard<std::mutex> lk(idle_m_);
  inflight_ -= n;
  if (inflight_ == 0) idle_cv_.notify_all();
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lk(idle_m_);
  idle_cv_.wait(lk, [this] { return inflight_ == 0; });
}

}  // namespace rrspmm::runtime
