// Server + panel-parallel execution tests. The headline property is the
// acceptance criterion: everything the runtime computes — panel-parallel
// or served — is bitwise equal to the sequential core kernels on every
// synth-corpus matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using runtime::PlanMode;
using runtime::Server;
using runtime::ServerConfig;
using runtime::WorkerPool;
using sparse::DenseMatrix;

void expect_bitwise_equal(const DenseMatrix& a, const DenseMatrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << what << " differs at (" << i << "," << j << ")";
    }
  }
}

/// Packed copy of a (possibly padded) matrix.
DenseMatrix packed(const DenseMatrix& m) {
  DenseMatrix out(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j);
  }
  return out;
}

/// Runs SpMM and SDDMM on padded operand/output views (ld > cols)
/// through core::run_* and runtime::parallel_*: every result must equal
/// the packed-storage core run bit for bit.
void expect_padded_runs_match(WorkerPool& pool, const core::ExecutionPlan& plan,
                              const sparse::CsrMatrix& m, const DenseMatrix& xp,
                              const DenseMatrix& yp, const std::string& what) {
  ASSERT_GT(xp.ld(), xp.cols()) << what;
  const DenseMatrix x = packed(xp);
  DenseMatrix y_ref(m.rows(), xp.cols());
  core::run_spmm(plan, x, y_ref);
  DenseMatrix y_seq = DenseMatrix::aligned(m.rows(), xp.cols());
  DenseMatrix y_par = DenseMatrix::aligned(m.rows(), xp.cols());
  core::run_spmm(plan, xp, y_seq);
  runtime::parallel_spmm(pool, plan, xp, y_par);
  expect_bitwise_equal(y_ref, packed(y_seq), "padded core spmm " + what);
  expect_bitwise_equal(y_ref, packed(y_par), "padded parallel spmm " + what);

  const std::size_t nnz = static_cast<std::size_t>(m.nnz());
  std::vector<value_t> o_ref(nnz), o_seq(nnz), o_par(nnz);
  core::run_sddmm(plan, m, x, packed(yp), o_ref.data(), nnz);
  core::run_sddmm(plan, m, xp, yp, o_seq.data(), nnz);
  runtime::parallel_sddmm(pool, plan, m, xp, yp, o_par.data(), nnz);
  for (std::size_t j = 0; j < nnz; ++j) {
    ASSERT_EQ(o_ref[j], o_seq[j]) << "padded core sddmm " << what << " nnz " << j;
    ASSERT_EQ(o_ref[j], o_par[j]) << "padded parallel sddmm " << what << " nnz " << j;
  }
}

// Acceptance criterion: panel-parallel SpMM/SDDMM through the runtime is
// bitwise equal to the sequential plan execution on every corpus matrix.
TEST(ParallelExecute, BitwiseEqualToSequentialOnEveryCorpusMatrix) {
  WorkerPool pool(4);
  const core::PipelineConfig cfg;
  for (const auto& entry : synth::build_test_corpus()) {
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, cfg);

    DenseMatrix x(entry.matrix.cols(), 16), y_host(entry.matrix.rows(), 16);
    sparse::fill_random(x, 7);
    DenseMatrix y_seq = y_host, y_par = y_host;
    core::run_spmm(plan, x, y_seq);
    runtime::parallel_spmm(pool, plan, x, y_par);
    expect_bitwise_equal(y_seq, y_par, "spmm " + entry.name);

    DenseMatrix yop(entry.matrix.rows(), 16);
    sparse::fill_random(yop, 11);
    const std::size_t nnz = static_cast<std::size_t>(entry.matrix.nnz());
    std::vector<value_t> out_seq(nnz), out_par(nnz);
    core::run_sddmm(plan, entry.matrix, x, yop, out_seq.data(), nnz);
    runtime::parallel_sddmm(pool, plan, entry.matrix, x, yop, out_par.data(), nnz);
    for (std::size_t j = 0; j < nnz; ++j) {
      ASSERT_EQ(out_seq[j], out_par[j]) << "sddmm " << entry.name << " nnz " << j;
    }

    // Padded views (ld > cols) give the packed bits through both paths.
    DenseMatrix xp = DenseMatrix::aligned(x.rows(), 12), yp = DenseMatrix::aligned(yop.rows(), 12);
    sparse::fill_random(xp, 13);
    sparse::fill_random(yp, 17);
    expect_padded_runs_match(pool, plan, entry.matrix, xp, yp, entry.name);
  }
}

TEST(ParallelExecute, NrPlansToo) {
  WorkerPool pool(3);
  for (const auto& entry : synth::build_test_corpus()) {
    const core::ExecutionPlan plan = core::build_plan_nr(entry.matrix, {});
    DenseMatrix x(entry.matrix.cols(), 8);
    sparse::fill_random(x, 3);
    DenseMatrix y_seq(entry.matrix.rows(), 8), y_par(entry.matrix.rows(), 8);
    core::run_spmm(plan, x, y_seq);
    runtime::parallel_spmm(pool, plan, x, y_par);
    expect_bitwise_equal(y_seq, y_par, "nr spmm " + entry.name);

    DenseMatrix xp = DenseMatrix::aligned(x.rows(), 12);
    DenseMatrix yp = DenseMatrix::aligned(entry.matrix.rows(), 12);
    sparse::fill_random(xp, 19);
    sparse::fill_random(yp, 23);
    expect_padded_runs_match(pool, plan, entry.matrix, xp, yp, "nr " + entry.name);
  }
}

// The served paths skip every zero-fill ahead of the kernels: the owned
// SpMM result is allocated uninitialised, and neither parallel_sddmm nor
// core::run_sddmm clears `out`. The kernels must therefore write every
// element: NaN-prefilled outputs come back with no NaN left, bitwise
// equal to the zero-initialised sequential SpMM, on rr and nr plans.
TEST(ParallelExecute, OverwritesNanPrefilledOutputs) {
  WorkerPool pool(4);
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  for (const auto& entry : synth::build_test_corpus()) {
    for (const bool rr : {true, false}) {
      const core::ExecutionPlan plan =
          rr ? core::build_plan(entry.matrix, {}) : core::build_plan_nr(entry.matrix, {});
      const std::string what = entry.name + (rr ? " rr" : " nr");
      DenseMatrix x(entry.matrix.cols(), 20), yop(entry.matrix.rows(), 20);
      sparse::fill_random(x, 29);
      sparse::fill_random(yop, 31);

      DenseMatrix y_ref(entry.matrix.rows(), 20);
      core::run_spmm(plan, x, y_ref);
      DenseMatrix y_par = DenseMatrix::uninitialized(entry.matrix.rows(), 20);
      y_par.fill(nan);
      runtime::parallel_spmm(pool, plan, x, y_par);
      expect_bitwise_equal(y_ref, y_par, "spmm " + what);

      const std::size_t nnz = static_cast<std::size_t>(entry.matrix.nnz());
      std::vector<value_t> o_ref(nnz, nan), o_par(nnz, nan);
      core::run_sddmm(plan, entry.matrix, x, yop, o_ref.data(), nnz);
      runtime::parallel_sddmm(pool, plan, entry.matrix, x, yop, o_par.data(), nnz);
      for (std::size_t j = 0; j < nnz; ++j) {
        ASSERT_FALSE(std::isnan(o_ref[j])) << "core sddmm " << what << " left nnz " << j;
        ASSERT_EQ(o_ref[j], o_par[j]) << "sddmm " << what << " nnz " << j;
      }
    }
  }
}

ServerConfig test_server_cfg(unsigned threads) {
  ServerConfig cfg;
  cfg.threads = threads;
  return cfg;
}

TEST(Server, SubmitMatchesSequentialKernels) {
  Server server(test_server_cfg(4));
  const auto corpus = synth::build_test_corpus();
  for (const auto& entry : corpus) server.register_matrix(entry.name, entry.matrix);

  for (const auto& entry : corpus) {
    DenseMatrix x(entry.matrix.cols(), 12);
    sparse::fill_random(x, 5);

    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    DenseMatrix y_seq(entry.matrix.rows(), 12);
    core::run_spmm(plan, x, y_seq);

    DenseMatrix y_served = server.submit(entry.name, x).get();
    expect_bitwise_equal(y_seq, y_served, "served " + entry.name);
  }
  EXPECT_EQ(server.metrics().requests_completed.load(), corpus.size());
  EXPECT_EQ(server.metrics().requests_failed.load(), 0u);
}

TEST(Server, SddmmMatchesSequentialKernels) {
  Server server(test_server_cfg(2));
  const auto entry = synth::build_test_corpus().front();
  server.register_matrix("m", entry.matrix);

  DenseMatrix x(entry.matrix.cols(), 8), y(entry.matrix.rows(), 8);
  sparse::fill_random(x, 2);
  sparse::fill_random(y, 9);

  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  std::vector<value_t> out_seq(static_cast<std::size_t>(entry.matrix.nnz()));
  core::run_sddmm(plan, entry.matrix, x, y, out_seq.data(), out_seq.size());

  const std::vector<value_t> out_served = server.submit_sddmm("m", x, y).get();
  ASSERT_EQ(out_seq.size(), out_served.size());
  for (std::size_t j = 0; j < out_seq.size(); ++j) ASSERT_EQ(out_seq[j], out_served[j]);
}

TEST(Server, QueuedRequestsRunOneAtATimeInSubmitOrder) {
  // One worker, and a blocker task holding it, so every request queues
  // before the drain starts: 6 requests of mixed K, owned and zero-copy
  // view submits alternating, must execute as 6 single executions in
  // submit order, each bitwise equal to the sequential kernel.
  Server server(test_server_cfg(1));
  const auto entry = synth::build_test_corpus().front();
  server.register_matrix("m", entry.matrix);
  server.warm("m");

  // Wait until the blocker is running: the worker pops its own deque LIFO,
  // so a drain task queued before it picked up the blocker would run first.
  std::promise<void> gate, blocking;
  std::shared_future<void> gate_f = gate.get_future().share();
  std::future<void> blocking_f = blocking.get_future();
  server.pool().submit([gate_f, &blocking] {
    blocking.set_value();
    gate_f.wait();
  });
  blocking_f.wait();

  constexpr int kReqs = 6;
  std::vector<DenseMatrix> xs, view_ys(kReqs);
  xs.reserve(kReqs);  // the view requests borrow these buffers
  std::vector<std::future<DenseMatrix>> owned(kReqs);
  std::vector<std::future<void>> viewed(kReqs);
  for (int r = 0; r < kReqs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    DenseMatrix x = DenseMatrix::aligned(entry.matrix.cols(), 4 + r);  // deliberately mixed K
    sparse::fill_random(x, 100 + static_cast<std::uint64_t>(r));
    xs.push_back(x);
    if (r % 2 == 0) {
      owned[i] = server.submit("m", std::move(x));
    } else {
      view_ys[i] = DenseMatrix::aligned(entry.matrix.rows(), x.cols());
      viewed[i] = server.submit("m", xs[i], view_ys[i]);
    }
  }
  EXPECT_EQ(server.metrics().queue_depth.load(), static_cast<std::uint64_t>(kReqs));
  gate.set_value();

  // FIFO: by the time the last request completes, every earlier one has.
  viewed[kReqs - 1].wait();
  for (int r = 0; r < kReqs - 1; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const auto st = r % 2 == 0 ? owned[i].wait_for(std::chrono::seconds(0))
                               : viewed[i].wait_for(std::chrono::seconds(0));
    EXPECT_EQ(st, std::future_status::ready) << "request " << r << " completed out of order";
  }

  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  for (int r = 0; r < kReqs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    DenseMatrix y_seq(entry.matrix.rows(), xs[i].cols());
    core::run_spmm(plan, packed(xs[i]), y_seq);
    if (r % 2 == 0) {
      expect_bitwise_equal(y_seq, owned[i].get(), "owned request " + std::to_string(r));
    } else {
      viewed[i].get();
      expect_bitwise_equal(y_seq, packed(view_ys[i]), "view request " + std::to_string(r));
    }
  }
  server.wait_idle();

  const auto& m = server.metrics();
  EXPECT_EQ(m.batches_executed.load(), static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(m.requests_completed.load(), static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(m.zero_copy_requests.load(), static_cast<std::uint64_t>(kReqs / 2));
  EXPECT_EQ(m.zero_copy_fallbacks.load(), 0u);
  EXPECT_EQ(m.queue_depth.load(), 0u);
  // Warm plan: the whole burst hit the cache; nothing was rebuilt.
  EXPECT_EQ(m.plans_built.load(), 1u);
}

TEST(Server, ConcurrentClientsOnSharedMatrices) {
  Server server(test_server_cfg(4));
  const auto corpus = synth::build_test_corpus();
  server.register_matrix("a", corpus[0].matrix);
  server.register_matrix("b", corpus[1].matrix);

  const core::ExecutionPlan plan_a = core::build_plan(corpus[0].matrix, {});
  const core::ExecutionPlan plan_b = core::build_plan(corpus[1].matrix, {});

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const bool use_a = (c + r) % 2 == 0;
        const auto& mat = use_a ? corpus[0].matrix : corpus[1].matrix;
        const auto& plan = use_a ? plan_a : plan_b;
        DenseMatrix x(mat.cols(), 6);
        sparse::fill_random(x, static_cast<std::uint64_t>(c * 100 + r));
        DenseMatrix y_seq(mat.rows(), 6);
        core::run_spmm(plan, x, y_seq);
        DenseMatrix y = server.submit(use_a ? "a" : "b", std::move(x)).get();
        for (index_t i = 0; i < y.rows(); ++i) {
          for (index_t j = 0; j < y.cols(); ++j) {
            if (y(i, j) != y_seq(i, j)) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.metrics().requests_completed.load(),
            static_cast<std::uint64_t>(kClients) * kPerClient);
  // Two matrices, one mode -> exactly two plans ever built.
  EXPECT_EQ(server.metrics().plans_built.load(), 2u);
}

TEST(Server, ErrorsAndIntrospection) {
  Server server(test_server_cfg(2));
  const auto entry = synth::build_test_corpus().front();
  server.register_matrix("m", entry.matrix);

  EXPECT_THROW(server.register_matrix("m", entry.matrix), sparse::invalid_matrix);
  EXPECT_THROW(server.submit("nope", DenseMatrix(1, 1)), sparse::invalid_matrix);
  EXPECT_THROW(server.submit("m", DenseMatrix(entry.matrix.cols() + 1, 4)),
               sparse::invalid_matrix);
  EXPECT_THROW(server.submit_sddmm("m", DenseMatrix(entry.matrix.cols(), 4),
                                   DenseMatrix(entry.matrix.rows(), 5)),
               sparse::invalid_matrix);

  EXPECT_TRUE(server.has_matrix("m"));
  EXPECT_FALSE(server.has_matrix("nope"));
  EXPECT_EQ(server.matrix_names(), std::vector<std::string>{"m"});
}

TEST(Server, WarmBuildsOnceAndMetricsJsonIsWellFormed) {
  Server server(test_server_cfg(2));
  const auto entry = synth::build_test_corpus().front();
  server.register_matrix("m", entry.matrix);

  const auto p1 = server.warm("m");
  const auto p2 = server.warm("m");
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(server.metrics().plans_built.load(), 1u);
  EXPECT_EQ(server.metrics().cache_hits.load(), 1u);

  DenseMatrix x(entry.matrix.cols(), 4);
  sparse::fill_random(x, 1);
  server.submit("m", std::move(x)).get();
  server.wait_idle();

  const std::string json = server.metrics_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"cache_hits\":", "\"cache_misses\":", "\"cache_evictions\":", "\"plans_built\":",
        "\"requests_submitted\":", "\"requests_completed\":", "\"batches_executed\":",
        "\"panels_executed\":", "\"queue_depth\":", "\"latency_p50_s\":", "\"latency_p95_s\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
  EXPECT_NE(json.find("\"requests_completed\":1"), std::string::npos) << json;
}

TEST(Server, SubmitAfterStopThrowsAndNothingIsDropped) {
  Server server(test_server_cfg(2));
  const auto entry = synth::build_test_corpus().front();
  server.register_matrix("m", entry.matrix);

  DenseMatrix x(entry.matrix.cols(), 4);
  sparse::fill_random(x, 1);
  auto fut = server.submit("m", x);

  EXPECT_FALSE(server.stopped());
  server.stop();
  EXPECT_TRUE(server.stopped());
  // Admitted before stop -> completed by stop.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NO_THROW(fut.get());

  EXPECT_THROW(server.submit("m", std::move(x)), runtime::server_stopped);
  EXPECT_THROW(server.submit_sddmm("m", DenseMatrix(entry.matrix.cols(), 2),
                                   DenseMatrix(entry.matrix.rows(), 2)),
               runtime::server_stopped);
  // A rejected request leaves no trace in the throughput counters.
  EXPECT_EQ(server.metrics().requests_submitted.load(), 1u);
  EXPECT_EQ(server.metrics().queue_depth.load(), 0u);
  server.stop();  // idempotent
}

// Regression for the shutdown race: requests submitted while the server
// is being stopped either complete (future ready, correct result) or are
// rejected with server_stopped — never dropped, never a crash from a
// drain task outliving the pool. A gated single worker guarantees the
// stop begins while requests are still queued.
TEST(Server, StopDrainsInFlightBatchesWhileClientsKeepSubmitting) {
  for (int round = 0; round < 10; ++round) {
    auto server = std::make_unique<Server>(test_server_cfg(1));
    const auto entry = synth::build_test_corpus().front();
    server->register_matrix("m", entry.matrix);
    server->warm("m");

    std::promise<void> gate;
    std::shared_future<void> gate_f = gate.get_future().share();
    server->pool().submit([gate_f] { gate_f.wait(); });

    std::atomic<int> completed{0}, rejected{0};
    constexpr int kClients = 4, kPerClient = 8;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kPerClient; ++r) {
          DenseMatrix x(entry.matrix.cols(), 4);
          sparse::fill_random(x, static_cast<std::uint64_t>(c * 64 + r));
          try {
            auto fut = server->submit("m", std::move(x));
            fut.get();  // admitted -> must complete
            completed.fetch_add(1);
          } catch (const runtime::server_stopped&) {
            rejected.fetch_add(1);
          }
        }
      });
    }

    gate.set_value();
    server->stop();
    for (auto& t : clients) t.join();

    EXPECT_EQ(completed.load() + rejected.load(), kClients * kPerClient);
    EXPECT_EQ(server->metrics().requests_completed.load(),
              static_cast<std::uint64_t>(completed.load()));
    EXPECT_EQ(server->metrics().queue_depth.load(), 0u);
    server.reset();  // destructor after stop(): no deadlock, no crash
  }
}

// The same shutdown race with the windows forced open: stall fail
// points inside submit (between admit and enqueue) and drain (between
// request pickup and execution) stretch exactly the intervals where a racing
// stop() could strand a request. Under those stalls the accounting
// invariant must still hold on every round: admitted implies completed,
// rejected implies server_stopped, nothing vanishes.
TEST(Server, StopDuringDrainWithInjectedStallsDropsNothing) {
  const auto entry = synth::build_test_corpus().front();
  const core::ExecutionPlan ref_plan = core::build_plan(entry.matrix, {});

  fault::FaultPlan stalls;
  stalls.seed = 31;
  for (const char* point : {fault::points::kServerSubmit, fault::points::kServerDrain}) {
    fault::FaultRule r;
    r.point = point;
    r.kind = fault::FaultKind::stall;
    r.probability = 1.0;
    r.stall_us = 400;
    stalls.rules.push_back(r);
  }

  for (int round = 0; round < 6; ++round) {
    auto server = std::make_unique<Server>(test_server_cfg(2));
    server->register_matrix("m", entry.matrix);
    server->warm("m");
    fault::ScopedFaultPlan armed(stalls);

    std::atomic<int> completed{0}, rejected{0};
    constexpr int kClients = 4, kPerClient = 6;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, round] {
        for (int r = 0; r < kPerClient; ++r) {
          DenseMatrix x(entry.matrix.cols(), 4);
          sparse::fill_random(x, static_cast<std::uint64_t>(round * 1024 + c * 64 + r));
          DenseMatrix y_ref(entry.matrix.rows(), 4);
          core::run_spmm(ref_plan, x, y_ref);
          try {
            auto fut = server->submit("m", std::move(x));
            expect_bitwise_equal(y_ref, fut.get(),
                                 "stalled stop round " + std::to_string(round));
            completed.fetch_add(1);
          } catch (const runtime::server_stopped&) {
            rejected.fetch_add(1);
          }
        }
      });
    }

    // Let some requests land inside the widened windows, then stop.
    std::this_thread::sleep_for(std::chrono::microseconds(300 + round * 200));
    server->stop();
    for (auto& t : clients) t.join();

    EXPECT_EQ(completed.load() + rejected.load(), kClients * kPerClient)
        << "round " << round << " dropped a request";
    EXPECT_EQ(server->metrics().requests_completed.load(),
              static_cast<std::uint64_t>(completed.load()))
        << "round " << round;
    EXPECT_EQ(server->metrics().requests_failed.load(), 0u) << "round " << round;
    EXPECT_EQ(server->metrics().queue_depth.load(), 0u) << "round " << round;
    server.reset();
  }
}

TEST(Server, DestructorDrainsAdmittedWork) {
  const auto entry = synth::build_test_corpus().front();
  std::future<DenseMatrix> fut;
  {
    Server server(test_server_cfg(1));
    server.register_matrix("m", entry.matrix);
    server.warm("m");
    std::promise<void> gate;
    std::shared_future<void> gate_f = gate.get_future().share();
    server.pool().submit([gate_f] { gate_f.wait(); });
    DenseMatrix x(entry.matrix.cols(), 4);
    sparse::fill_random(x, 5);
    fut = server.submit("m", std::move(x));
    gate.set_value();
  }  // ~Server: stop() + drain before the pool joins
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_NO_THROW(fut.get());
}

// execute_us counts every request kind, not only SpMM: one served SDDMM
// and one served SpGEMM each add their execution time, while
// batches_executed still counts SpMM executions alone. The operands are
// sized so each request runs well past 1 µs (add_us truncates).
TEST(Server, ExecuteUsCountsSddmmAndSpgemm) {
  const sparse::CsrMatrix m = synth::erdos_renyi(2048, 2048, 32768, 17);
  Server server(test_server_cfg(2));
  server.register_matrix("m", m);
  server.warm("m");

  DenseMatrix x(m.cols(), 32), y(m.rows(), 32);
  sparse::fill_random(x, 3);
  sparse::fill_random(y, 4);
  server.submit_sddmm("m", std::move(x), std::move(y)).get();
  const std::uint64_t after_sddmm = server.metrics().execute_us.load();
  EXPECT_GT(after_sddmm, 0u) << "SDDMM execution not counted";

  server.submit_spgemm("m", "m").get();
  EXPECT_GT(server.metrics().execute_us.load(), after_sddmm) << "SpGEMM execution not counted";
  EXPECT_EQ(server.metrics().batches_executed.load(), 0u);
  EXPECT_EQ(server.metrics().spgemm_batches.load(), 1u);
}

}  // namespace
}  // namespace rrspmm
