#include "dist/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/fault.hpp"
#include "kernels/spmm.hpp"

namespace rrspmm::dist {

namespace {

namespace simd = kernels::simd;

/// Runs body(0..n-1) with each item preferentially on the node owning
/// its device (devices[i] mod node_count). Deadlock-free by the same
/// discipline as WorkerPool::parallel_for: every item is guarded by a
/// claim flag and the CALLER sweeps all items too, so progress never
/// depends on the node-targeted helper tasks actually running — they
/// only improve placement. Falls back to plain parallel_for on a
/// topology-blind pool. `body` must not throw (the shard loops catch
/// internally).
void run_on_device_nodes(runtime::WorkerPool& pool, const std::vector<int>& devices,
                         const std::function<void(std::size_t)>& body) {
  const std::size_t n = devices.size();
  if (n == 0) return;
  if (!pool.numa_active()) {
    pool.parallel_for(n, body);
    return;
  }

  struct State {
    std::vector<std::atomic<char>> claimed;
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::mutex m;
    std::condition_variable cv;
    explicit State(std::size_t n_) : claimed(n_), n(n_) {}
  };
  auto st = std::make_shared<State>(n);
  st->body = &body;

  const auto claim_and_run = [](const std::shared_ptr<State>& s, std::size_t i) {
    char expected = 0;
    if (!s->claimed[i].compare_exchange_strong(expected, 1, std::memory_order_acq_rel)) return;
    (*s->body)(i);
    if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
      std::lock_guard<std::mutex> lk(s->m);
      s->cv.notify_all();
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    pool.submit_on_node(devices[i] % pool.node_count(),
                        [st, claim_and_run, i] { claim_and_run(st, i); });
  }
  // Caller participation: claim whatever the helpers have not started
  // yet — own-node items first, so the cross-node claims that spoil
  // placement happen only once local work is gone. A helper arriving
  // later finds the item claimed and exits without touching `body`
  // (which may be gone by then — the state it does touch is
  // shared-owned).
  const int self = runtime::WorkerPool::current_node();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool local = devices[i] % pool.node_count() == self;
      if ((pass == 0) == local) claim_and_run(st, i);
    }
  }

  std::unique_lock<std::mutex> lk(st->m);
  st->cv.wait(lk, [&] { return st->done.load(std::memory_order_acquire) == st->n; });
}

}  // namespace

ShardedExecutor::ShardedExecutor(ShardedExecutorConfig cfg)
    : cfg_(cfg), planner_(cfg.planner) {
  if (cfg_.num_devices < 1) {
    throw sparse::invalid_matrix("ShardedExecutor: num_devices must be >= 1");
  }
}

void ShardedExecutor::run_sharded(runtime::WorkerPool& pool, const core::ExecutionPlan& plan,
                                  runtime::Metrics* metrics,
                                  const std::function<void(const core::RowShard&)>& body) {
  const ShardPlan sp = planner_.plan_rows(plan, cfg_.num_devices, cfg_.strategy);
  if (metrics) metrics->sharded_batches.fetch_add(1, std::memory_order_relaxed);

  // One work item per (row range, owning device). Device ids index the
  // original shard assignment; a device that throws is dead for the rest
  // of this call and its ranges migrate to the survivors.
  struct Work {
    core::RowShard shard;
    int device = 0;
  };
  std::vector<Work> work;
  work.reserve(sp.row_shards.size());
  for (std::size_t d = 0; d < sp.row_shards.size(); ++d) {
    work.push_back({sp.row_shards[d], static_cast<int>(d)});
  }
  std::vector<char> dead(static_cast<std::size_t>(cfg_.num_devices), 0);

  int rounds = 0;
  while (!work.empty()) {
    std::vector<Work> failed;
    std::mutex failed_m;
    std::vector<int> devices;
    devices.reserve(work.size());
    for (const Work& w : work) devices.push_back(w.device);
    run_on_device_nodes(pool, devices, [&](std::size_t wi) {
      const Work& w = work[wi];
      try {
        fault::hit(fault::points::kShardExec);
        fault::hit_nothrow(fault::points::kShardStraggler);
        body(w.shard);
        if (metrics) metrics->shards_executed.fetch_add(1, std::memory_order_relaxed);
      } catch (const fault::injected_fault&) {
        if (metrics) {
          metrics->faults_injected.fetch_add(1, std::memory_order_relaxed);
          metrics->shard_failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lk(failed_m);
        failed.push_back(w);
      } catch (...) {
        if (metrics) metrics->shard_failures.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(failed_m);
        failed.push_back(w);
      }
    });
    if (failed.empty()) break;

    for (const Work& w : failed) dead[static_cast<std::size_t>(w.device)] = 1;
    std::vector<int> survivors;
    for (int d = 0; d < cfg_.num_devices; ++d) {
      if (!dead[static_cast<std::size_t>(d)]) survivors.push_back(d);
    }
    if (survivors.empty() || rounds >= cfg_.max_failover_rounds) {
      throw shards_exhausted(survivors.empty()
                                 ? "ShardedExecutor: all devices failed"
                                 : "ShardedExecutor: failover rounds exhausted");
    }
    ++rounds;

    // Deterministic migration order regardless of which worker recorded
    // which failure first: re-plan ranges in ascending row order.
    std::sort(failed.begin(), failed.end(),
              [](const Work& a, const Work& b) { return a.shard.row_begin < b.shard.row_begin; });
    std::vector<Work> next;
    for (const Work& w : failed) {
      if (metrics) metrics->failovers.fetch_add(1, std::memory_order_relaxed);
      const ShardPlan rp =
          planner_.plan_row_range(plan, w.shard.row_begin, w.shard.row_end,
                                  static_cast<int>(survivors.size()), cfg_.strategy);
      for (std::size_t i = 0; i < rp.row_shards.size(); ++i) {
        next.push_back({rp.row_shards[i], survivors[i % survivors.size()]});
      }
    }
    work = std::move(next);
  }
}

void ShardedExecutor::spmm(runtime::WorkerPool& pool, const core::ExecutionPlan& plan,
                           sparse::DenseView x, sparse::DenseMutView y,
                           runtime::Metrics* metrics) {
  if (!x.valid() || !y.valid() || y.rows != plan.tiled.rows() || y.cols != x.cols) {
    throw sparse::invalid_matrix("ShardedExecutor::spmm: operand views do not match the plan");
  }
  const simd::KernelConfig kcfg = core::kernel_config(plan, cfg_.kernel ? &*cfg_.kernel : nullptr);
  const simd::KernelSelection ksel = simd::select_kernels(kcfg, x.cols);
  // Each shard writes its rows straight through row_perm into the
  // caller's y; a re-run of a failed shard zero-fills those rows first.
  run_sharded(pool, plan, metrics, [&](const core::RowShard& s) {
    kernels::spmm_aspt_row_range(plan.tiled, x, y, s.row_begin, s.row_end, kcfg, &plan.row_perm);
    fault::hit(fault::points::kShardInterconnect);
    if (metrics) metrics->count_kernel(ksel.isa, ksel.specialized);
  });
}

void ShardedExecutor::spgemm(runtime::WorkerPool& pool, const core::ExecutionPlan& plan,
                             const CsrMatrix& a, const CsrMatrix& b, CsrMatrix& c,
                             runtime::Metrics* metrics, const spgemm::SpgemmConfig& cfg) {
  if (a.rows() != plan.tiled.rows()) {
    throw sparse::invalid_matrix("ShardedExecutor::spgemm: left operand does not match the plan");
  }
  // Symbolic up front, outside the failover loop: it allocates the one
  // output structure every shard fills into. A throw here (probe or
  // organic) propagates to the server's retry layer, like a plan-build
  // failure.
  spgemm::SymbolicResult sym = runtime::parallel_spgemm_symbolic(pool, a, b, cfg, metrics);
  std::vector<index_t> colidx(static_cast<std::size_t>(sym.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(sym.nnz()));
  // Composed processing order (round 1 ∘ round 2): shard cuts index
  // positions of this order, so reorder-aware seams keep each device on
  // one cluster of similar B-row footprints.
  const std::vector<index_t> composed = core::spgemm_row_order(plan);
  const std::vector<index_t>* order = composed.empty() ? nullptr : &composed;

  run_sharded(pool, plan, metrics, [&](const core::RowShard& s) {
    spgemm::AccumulatorCounts local;
    spgemm::numeric_rows(a, b, sym.rowptr, colidx.data(), values.data(), s.row_begin,
                         s.row_end, cfg, order, &local);
    fault::hit(fault::points::kShardInterconnect);
    if (metrics) {
      metrics->spgemm_rows_hash.fetch_add(local.hash_rows, std::memory_order_relaxed);
      metrics->spgemm_rows_sort.fetch_add(local.sort_rows, std::memory_order_relaxed);
      metrics->spgemm_rows_dense.fetch_add(local.dense_rows, std::memory_order_relaxed);
    }
  });
  c = CsrMatrix(a.rows(), b.cols(), std::move(sym.rowptr), std::move(colidx), std::move(values));
}

}  // namespace rrspmm::dist
