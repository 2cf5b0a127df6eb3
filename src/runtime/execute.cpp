#include "runtime/execute.hpp"

#include <algorithm>
#include <functional>

#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"

namespace rrspmm::runtime {

namespace {

namespace simd = kernels::simd;

/// Runs body(row_begin, row_end) once per ASpT row panel of `a` on the
/// pool (one range over all rows when the tiling has no panels), counting
/// the panel tasks.
void for_each_panel(WorkerPool& pool, const aspt::AsptMatrix& a, Metrics* metrics,
                    const std::function<void(index_t, index_t)>& body) {
  const auto& panels = a.panels();
  if (panels.empty()) {
    body(0, a.rows());
    return;
  }
  pool.parallel_for(panels.size(), [&](std::size_t pi) {
    body(panels[pi].row_begin, panels[pi].row_end);
    if (metrics) metrics->panels_executed.fetch_add(1, std::memory_order_relaxed);
  });
}

}  // namespace

void parallel_spmm(WorkerPool& pool, const core::ExecutionPlan& plan, DenseView x,
                   DenseMutView y, Metrics* metrics, const simd::KernelConfig* kernel) {
  if (y.rows != plan.tiled.rows() || y.cols != x.cols) {
    throw sparse::invalid_matrix("parallel_spmm: y view must be plan.rows x x.cols");
  }
  const simd::KernelConfig cfg = core::kernel_config(plan, kernel);
  const simd::KernelSelection sel = simd::select_kernels(cfg, x.cols);
  for_each_panel(pool, plan.tiled, metrics, [&](index_t lo, index_t hi) {
    kernels::spmm_aspt_row_range(plan.tiled, x, y, lo, hi, cfg, &plan.row_perm);
    if (metrics) metrics->count_kernel(sel.isa, sel.specialized);
  });
}

void parallel_sddmm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& m,
                    DenseView x, DenseView y, value_t* out, std::size_t out_size,
                    Metrics* metrics, const simd::KernelConfig* kernel) {
  if (m.rows() != plan.tiled.rows() || m.nnz() != plan.tiled.stats().nnz_total) {
    throw sparse::invalid_matrix("parallel_sddmm: matrix does not match the plan");
  }
  if (out_size != static_cast<std::size_t>(m.nnz())) {
    throw sparse::invalid_matrix("parallel_sddmm: out must be pre-sized to nnz");
  }
  const simd::KernelConfig cfg = core::kernel_config(plan, kernel);
  const simd::KernelSelection sel = simd::select_kernels(cfg, x.cols);
  const std::vector<offset_t> shift = kernels::sddmm_out_shift(plan.tiled, plan.row_perm);
  // No fill: the panels' kernels write every output slot exactly once.
  for_each_panel(pool, plan.tiled, metrics, [&](index_t lo, index_t hi) {
    kernels::sddmm_aspt_row_range(plan.tiled, x, y, out, out_size, lo, hi, cfg, &plan.row_perm,
                                  &shift);
    if (metrics) metrics->count_kernel(sel.isa, sel.specialized);
  });
}

spgemm::SymbolicResult parallel_spgemm_symbolic(WorkerPool& pool, const CsrMatrix& a,
                                                const CsrMatrix& b,
                                                const spgemm::SpgemmConfig& cfg,
                                                Metrics* metrics) {
  if (a.cols() != b.rows()) {
    throw sparse::invalid_matrix("parallel_spgemm: A cols must equal B rows");
  }
  spgemm::SymbolicResult res;
  res.rowptr.assign(static_cast<std::size_t>(a.rows()) + 1, 0);

  // Fixed row blocks, counts stored at their row index: identical output
  // for any thread count or chunk interleaving.
  constexpr index_t kRowBlock = 64;
  const std::size_t blocks = static_cast<std::size_t>((a.rows() + kRowBlock - 1) / kRowBlock);
  if (blocks > 0) {
    pool.parallel_for(blocks, [&](std::size_t bi) {
      const index_t rb = static_cast<index_t>(bi) * kRowBlock;
      const index_t re = std::min<index_t>(rb + kRowBlock, a.rows());
      spgemm::symbolic_rows(a, b, res.rowptr.data() + rb + 1, rb, re, cfg);
    });
  }
  for (std::size_t i = 1; i < res.rowptr.size(); ++i) res.rowptr[i] += res.rowptr[i - 1];
  for (index_t i = 0; i < a.rows(); ++i) res.upper_bound_nnz += spgemm::row_upper_bound(a, b, i);
  res.flops = 2.0 * static_cast<double>(res.upper_bound_nnz);

  if (metrics) {
    metrics->spgemm_flops.fetch_add(static_cast<std::uint64_t>(res.flops),
                                    std::memory_order_relaxed);
    metrics->spgemm_output_nnz.fetch_add(static_cast<std::uint64_t>(res.nnz()),
                                         std::memory_order_relaxed);
  }
  return res;
}

void parallel_spgemm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& a,
                     const CsrMatrix& b, CsrMatrix& c, Metrics* metrics,
                     const spgemm::SpgemmConfig& cfg) {
  if (a.rows() != plan.tiled.rows()) {
    throw sparse::invalid_matrix("parallel_spgemm: left operand does not match the plan");
  }
  spgemm::SymbolicResult sym = parallel_spgemm_symbolic(pool, a, b, cfg, metrics);
  std::vector<index_t> colidx(static_cast<std::size_t>(sym.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(sym.nnz()));

  // Task shape mirrors parallel_spmm: one task per ASpT row panel of the
  // permuted row space. Each task computes the original rows its panel's
  // positions map to under the composed processing order (round 1's
  // physical permutation and round 2's sparse-remainder order); the
  // output lands directly in A's row order, so no unpermute pass exists
  // to perturb.
  const std::vector<index_t> composed = core::spgemm_row_order(plan);
  const std::vector<index_t>* order = composed.empty() ? nullptr : &composed;
  for_each_panel(pool, plan.tiled, metrics, [&](index_t rb, index_t re) {
    spgemm::AccumulatorCounts local;
    spgemm::numeric_rows(a, b, sym.rowptr, colidx.data(), values.data(), rb, re, cfg, order,
                         &local);
    if (metrics) {
      metrics->spgemm_rows_hash.fetch_add(local.hash_rows, std::memory_order_relaxed);
      metrics->spgemm_rows_sort.fetch_add(local.sort_rows, std::memory_order_relaxed);
      metrics->spgemm_rows_dense.fetch_add(local.dense_rows, std::memory_order_relaxed);
    }
  });
  c = CsrMatrix(a.rows(), b.cols(), std::move(sym.rowptr), std::move(colidx), std::move(values));
}

void Executor::sddmm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& m,
                     DenseView x, DenseView y, value_t* out, std::size_t out_size,
                     Metrics* metrics) {
  parallel_sddmm(pool, plan, m, x, y, out, out_size, metrics);
}

void Executor::spgemm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& a,
                      const CsrMatrix& b, CsrMatrix& c, Metrics* metrics,
                      const spgemm::SpgemmConfig& cfg) {
  parallel_spgemm(pool, plan, a, b, c, metrics, cfg);
}

}  // namespace rrspmm::runtime
