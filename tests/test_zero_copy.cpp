// Zero-copy serving data path tests. The contract: borrowed-view
// submits are bitwise equal to the owned-copy path on every execution
// configuration — thread counts, shard strategies, chaos fault plans —
// and misaligned callers transparently fall back to the copy path with
// identical bits. SpMM results land in the caller's y buffer, SDDMM in
// the caller's raw nnz-sized output.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dist/executor.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "synth/corpus.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using runtime::Server;
using runtime::ServerConfig;
using sparse::DenseMatrix;
using sparse::DenseMutView;
using sparse::DenseView;

void expect_view_equals(const DenseMatrix& ref, const DenseMatrix& got, const std::string& what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  for (index_t i = 0; i < ref.rows(); ++i) {
    for (index_t j = 0; j < ref.cols(); ++j) {
      ASSERT_EQ(ref(i, j), got(i, j)) << what << " differs at (" << i << "," << j << ")";
    }
  }
}

/// A buffer whose base pointer is deliberately NOT kDenseAlignBytes
/// aligned: one value_t past an aligned boundary.
struct MisalignedBuffer {
  std::vector<value_t> storage;
  value_t* data = nullptr;

  MisalignedBuffer(index_t rows, index_t cols)
      : storage(static_cast<std::size_t>(rows) * cols + 2 * sparse::kDenseAlignBytes) {
    auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
    const std::uintptr_t a = sparse::kDenseAlignBytes;
    data = reinterpret_cast<value_t*>((addr + a - 1) / a * a) + 1;
  }
};

/// Sequential reference SDDMM output, nnz-long.
std::vector<value_t> sddmm_reference(const core::ExecutionPlan& plan, const sparse::CsrMatrix& m,
                                     DenseView x, DenseView y) {
  std::vector<value_t> out(static_cast<std::size_t>(m.nnz()));
  core::run_sddmm(plan, m, x, y, out.data(), out.size());
  return out;
}

ServerConfig zc_cfg(unsigned threads) {
  ServerConfig cfg;
  cfg.threads = threads;
  cfg.zero_copy = true;
  return cfg;
}

// SpMM + SDDMM view submits across thread counts and shard strategies:
// every combination must reproduce the sequential core result bit for
// bit, through borrowed views, into caller-owned buffers. The "degraded"
// row fails every pool chunk, so both requests exhaust their retries and
// degrade to the sequential core path on the caller's views.
TEST(ZeroCopy, BitwiseSweepAcrossThreadsAndShardStrategies) {
  const auto corpus = synth::build_test_corpus();
  ASSERT_GE(corpus.size(), 2u);

  struct Strategy {
    const char* name;
    int devices;  ///< 0 = no executor (panel-parallel path)
    core::ShardStrategy strategy;
    bool degrade = false;  ///< inject a persistent fault, degrade_to_single_device on
  };
  const Strategy strategies[] = {
      {"panel", 0, core::ShardStrategy::contiguous},
      {"contiguous", 2, core::ShardStrategy::contiguous},
      {"nnz_balanced", 3, core::ShardStrategy::nnz_balanced},
      {"reorder_aware", 2, core::ShardStrategy::reorder_aware},
      {"degraded", 0, core::ShardStrategy::contiguous, true},
  };

  for (std::size_t mi = 0; mi < 2; ++mi) {
    const auto& entry = corpus[mi];
    const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
    const index_t k = 16;

    DenseMatrix x = DenseMatrix::aligned(entry.matrix.cols(), k);
    sparse::fill_random(x, 17 + mi);
    DenseMatrix y_ref(entry.matrix.rows(), k);
    core::run_spmm(plan, x, y_ref);

    DenseMatrix ys = DenseMatrix::aligned(entry.matrix.rows(), k);
    sparse::fill_random(ys, 23 + mi);
    const std::vector<value_t> sddmm_ref = sddmm_reference(plan, entry.matrix, x, ys);

    for (const unsigned threads : {1u, 4u}) {
      for (const Strategy& s : strategies) {
        ServerConfig cfg = zc_cfg(threads);
        if (s.devices > 0) {
          dist::ShardedExecutorConfig ex;
          ex.num_devices = s.devices;
          ex.strategy = s.strategy;
          cfg.executor = std::make_shared<dist::ShardedExecutor>(ex);
        }
        if (s.degrade) {
          cfg.retry.max_attempts = 2;
          cfg.retry.backoff_base = std::chrono::microseconds(10);
          cfg.retry.degrade_to_single_device = true;
        }
        Server server(cfg);
        server.register_matrix(entry.name, entry.matrix);

        fault::FaultPlan fp;
        if (s.degrade) {
          server.warm(entry.name);  // the plan build runs before the fault arms
          fault::FaultRule r;
          r.point = fault::points::kWorkerChunk;
          r.probability = 1.0;  // unlimited: every pooled attempt fails
          fp.rules.push_back(r);
        }
        fault::ScopedFaultPlan armed(fp);

        const std::string what =
            entry.name + " t=" + std::to_string(threads) + " " + s.name;

        DenseMatrix y = DenseMatrix::aligned(entry.matrix.rows(), k);
        server.submit(entry.name, DenseView(x), DenseMutView(y)).get();
        expect_view_equals(y_ref, y, "spmm " + what);

        std::vector<value_t> out(static_cast<std::size_t>(entry.matrix.nnz()));
        server
            .submit_sddmm(entry.name, DenseView(x), DenseView(ys), out.data(), out.size())
            .get();
        ASSERT_EQ(out.size(), sddmm_ref.size()) << what;
        for (std::size_t j = 0; j < out.size(); ++j) {
          ASSERT_EQ(out[j], sddmm_ref[j]) << "sddmm " << what << " nnz " << j;
        }

        EXPECT_EQ(server.metrics().zero_copy_fallbacks.load(), 0u) << what;
        EXPECT_EQ(server.metrics().zero_copy_requests.load(), 2u) << what;
        // A one-worker pool runs parallel_for inline, past the chunk
        // fail point, so only the multi-worker rows actually degrade.
        const bool degraded = s.degrade && threads > 1;
        EXPECT_EQ(server.metrics().degradations.load(), degraded ? 2u : 0u) << what;
        server.stop();
      }
    }
  }
}

// Misaligned operand or output views must fall back to the owned-copy
// path (counted in zero_copy_fallbacks) and still produce the exact
// reference bits in the caller's buffers.
TEST(ZeroCopy, MisalignedViewsFallBackBitwiseEqual) {
  const auto corpus = synth::build_test_corpus();
  const auto& entry = corpus[0];
  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  const index_t k = 8;
  const index_t rows = entry.matrix.rows();
  const index_t cols = entry.matrix.cols();

  DenseMatrix x_src(cols, k);
  sparse::fill_random(x_src, 31);
  DenseMatrix y_ref(rows, k);
  core::run_spmm(plan, x_src, y_ref);

  MisalignedBuffer x_buf(cols, k);
  for (index_t i = 0; i < cols; ++i) {
    for (index_t j = 0; j < k; ++j) x_buf.data[static_cast<std::size_t>(i) * k + j] = x_src(i, j);
  }
  const DenseView x_mis(x_buf.data, cols, k, k);
  ASSERT_FALSE(x_mis.zero_copy_eligible());
  ASSERT_TRUE(x_mis.valid());

  MisalignedBuffer y_buf(rows, k);
  const DenseMutView y_mis(y_buf.data, rows, k, k);
  ASSERT_FALSE(y_mis.zero_copy_eligible());

  Server server(zc_cfg(2));
  server.register_matrix(entry.name, entry.matrix);

  // Misaligned x, aligned y.
  DenseMatrix y1 = DenseMatrix::aligned(rows, k);
  server.submit(entry.name, x_mis, DenseMutView(y1)).get();
  expect_view_equals(y_ref, y1, "misaligned x");
  EXPECT_GE(server.metrics().zero_copy_fallbacks.load(), 1u);

  // Aligned x, misaligned y.
  server.submit(entry.name, DenseView(x_src), y_mis).get();
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < k; ++j) {
      ASSERT_EQ(y_ref(i, j), y_buf.data[static_cast<std::size_t>(i) * k + j])
          << "misaligned y (" << i << "," << j << ")";
    }
  }

  // Misaligned SDDMM operands.
  DenseMatrix ys(rows, k);
  sparse::fill_random(ys, 37);
  const std::vector<value_t> ref = sddmm_reference(plan, entry.matrix, x_src, ys);
  std::vector<value_t> out(static_cast<std::size_t>(entry.matrix.nnz()));
  server.submit_sddmm(entry.name, x_mis, DenseView(ys), out.data(), out.size()).get();
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    ASSERT_EQ(out[j], ref[j]) << "misaligned sddmm nnz " << j;
  }
  server.stop();
}

// Switching zero-copy off routes every view submit through the copy
// path; the caller-visible bits must not change.
TEST(ZeroCopy, DisabledConfigIsBitwiseIdenticalToEnabled) {
  const auto corpus = synth::build_test_corpus();
  const auto& entry = corpus[1];
  const index_t k = 12;

  DenseMatrix x = DenseMatrix::aligned(entry.matrix.cols(), k);
  sparse::fill_random(x, 41);

  DenseMatrix y_on = DenseMatrix::aligned(entry.matrix.rows(), k);
  DenseMatrix y_off = DenseMatrix::aligned(entry.matrix.rows(), k);
  for (const bool zc : {true, false}) {
    ServerConfig cfg = zc_cfg(2);
    cfg.zero_copy = zc;
    Server server(cfg);
    server.register_matrix(entry.name, entry.matrix);
    DenseMatrix& y = zc ? y_on : y_off;
    server.submit(entry.name, DenseView(x), DenseMutView(y)).get();
    if (!zc) EXPECT_GE(server.metrics().zero_copy_fallbacks.load(), 1u);
    server.stop();
  }
  expect_view_equals(y_on, y_off, "zero-copy on vs off");
}

// A view submit refused by a stopped server leaves no trace: neither
// zero-copy counter moves and no fallback copy is made or timed, whether
// the views are aligned (borrow) or misaligned (copy fallback).
TEST(ZeroCopy, SubmitAfterStopCountsAndCopiesNothing) {
  const auto corpus = synth::build_test_corpus();
  const auto& entry = corpus[0];
  const index_t rows = entry.matrix.rows();
  const index_t cols = entry.matrix.cols();
  const index_t k = 8;
  Server server(zc_cfg(1));
  server.register_matrix(entry.name, entry.matrix);
  server.stop();

  DenseMatrix x = DenseMatrix::aligned(cols, k);
  DenseMatrix y = DenseMatrix::aligned(rows, k);
  MisalignedBuffer x_buf(cols, k);
  const DenseView x_mis(x_buf.data, cols, k, k);
  ASSERT_FALSE(x_mis.zero_copy_eligible());
  std::vector<value_t> out(static_cast<std::size_t>(entry.matrix.nnz()));

  EXPECT_THROW(server.submit(entry.name, DenseView(x), DenseMutView(y)), runtime::server_stopped);
  EXPECT_THROW(server.submit(entry.name, x_mis, DenseMutView(y)), runtime::server_stopped);
  EXPECT_THROW(server.submit_sddmm(entry.name, DenseView(x), DenseView(y), out.data(), out.size()),
               runtime::server_stopped);
  EXPECT_THROW(server.submit_sddmm(entry.name, x_mis, DenseView(y), out.data(), out.size()),
               runtime::server_stopped);

  const runtime::Metrics& m = server.metrics();
  EXPECT_EQ(m.zero_copy_requests.load(), 0u);
  EXPECT_EQ(m.zero_copy_fallbacks.load(), 0u);
  EXPECT_EQ(m.submit_copy_us.load(), 0u);
  EXPECT_EQ(m.requests_submitted.load(), 0u);
}

TEST(ZeroCopy, ShapeMismatchesThrow) {
  const auto corpus = synth::build_test_corpus();
  const auto& entry = corpus[0];
  Server server(zc_cfg(1));
  server.register_matrix(entry.name, entry.matrix);

  DenseMatrix x = DenseMatrix::aligned(entry.matrix.cols(), 4);
  DenseMatrix y_bad_rows = DenseMatrix::aligned(entry.matrix.rows() + 1, 4);
  DenseMatrix y_bad_cols = DenseMatrix::aligned(entry.matrix.rows(), 5);
  DenseMatrix y = DenseMatrix::aligned(entry.matrix.rows(), 4);

  EXPECT_THROW(server.submit(entry.name, DenseView(x), DenseMutView(y_bad_rows)),
               sparse::invalid_matrix);
  EXPECT_THROW(server.submit(entry.name, DenseView(x), DenseMutView(y_bad_cols)),
               sparse::invalid_matrix);
  EXPECT_THROW(server.submit(entry.name, DenseView(), DenseMutView(y)), sparse::invalid_matrix);

  std::vector<value_t> out(static_cast<std::size_t>(entry.matrix.nnz()));
  EXPECT_THROW(
      server.submit_sddmm(entry.name, DenseView(x), DenseView(y), nullptr, out.size()),
      sparse::invalid_matrix);
  EXPECT_THROW(
      server.submit_sddmm(entry.name, DenseView(x), DenseView(y), out.data(), out.size() + 1),
      sparse::invalid_matrix);
  server.stop();
}

// Chaos sweep: under seeded random fault plans (with retry + sharded
// failover + degradation in path), borrowed-view requests must complete
// and stay bitwise equal to the fault-free reference — faults may force
// the runtime onto the degraded path, which materializes the views, but
// never change the caller-visible bits.
TEST(ZeroCopy, ChaosSeedsKeepBorrowedSubmitsBitwiseEqual) {
  const auto corpus = synth::build_test_corpus();
  const auto& entry = corpus[0];
  const core::ExecutionPlan plan = core::build_plan(entry.matrix, {});
  const index_t k = 8;

  DenseMatrix x = DenseMatrix::aligned(entry.matrix.cols(), k);
  sparse::fill_random(x, 43);
  DenseMatrix y_ref(entry.matrix.rows(), k);
  core::run_spmm(plan, x, y_ref);
  DenseMatrix ys = DenseMatrix::aligned(entry.matrix.rows(), k);
  sparse::fill_random(ys, 47);
  const std::vector<value_t> sddmm_ref = sddmm_reference(plan, entry.matrix, x, ys);

  for (const std::uint64_t seed : {11ull, 47ull}) {
    ServerConfig cfg = zc_cfg(3);
    cfg.retry.max_attempts = 4;
    cfg.retry.backoff_base = std::chrono::microseconds(100);
    cfg.retry.degrade_to_single_device = true;
    dist::ShardedExecutorConfig ex;
    ex.num_devices = 3;
    ex.max_failover_rounds = 3;
    cfg.executor = std::make_shared<dist::ShardedExecutor>(ex);
    Server server(cfg);
    server.register_matrix(entry.name, entry.matrix);

    const fault::FaultPlan chaos = fault::FaultPlan::chaos(seed);
    fault::ScopedFaultPlan armed(chaos);

    std::vector<DenseMatrix> y_bufs;
    std::vector<std::future<void>> futs;
    for (int r = 0; r < 6; ++r) {
      y_bufs.push_back(DenseMatrix::aligned(entry.matrix.rows(), k));
    }
    for (int r = 0; r < 6; ++r) {
      futs.push_back(server.submit(entry.name, DenseView(x), DenseMutView(y_bufs[r])));
    }
    std::vector<value_t> out(static_cast<std::size_t>(entry.matrix.nnz()));
    std::future<void> sddmm_fut =
        server.submit_sddmm(entry.name, DenseView(x), DenseView(ys), out.data(), out.size());

    for (std::size_t r = 0; r < futs.size(); ++r) {
      ASSERT_NO_THROW(futs[r].get()) << "chaos seed " << seed << " request " << r;
      expect_view_equals(y_ref, y_bufs[r],
                         "chaos seed " + std::to_string(seed) + " req " + std::to_string(r));
    }
    ASSERT_NO_THROW(sddmm_fut.get()) << "chaos seed " << seed << " sddmm";
    for (std::size_t j = 0; j < out.size(); ++j) {
      ASSERT_EQ(out[j], sddmm_ref[j]) << "chaos seed " << seed << " sddmm nnz " << j;
    }
    server.stop();
  }
}

}  // namespace
}  // namespace rrspmm
