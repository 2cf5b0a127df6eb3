// Panel-parallel plan execution on a WorkerPool.
//
// One task per ASpT row panel: the panel's dense tile plus the sparse
// remainder of its rows, via the kernels' row-range entry points. Each
// task writes a disjoint set of output rows, and each row accumulates
// dense-then-sparse contributions in the same nonzero order as the
// sequential kernels, so results are bitwise equal to core::run_spmm /
// run_sddmm — the runtime changes who computes, never what.
//
// Reordered plans take the same single path: each task hands the plan's
// row_perm to the kernels, which write tiled row i straight to the
// caller's row row_perm[i] (SDDMM also reads Y row row_perm[i] and shifts
// the row's outputs into the caller's CSR order). No execute path
// allocates a permuted temporary or runs a scatter pass.
#pragma once

#include <cstddef>
#include <vector>

#include "core/pipeline.hpp"
#include "kernels/simd/dispatch.hpp"
#include "runtime/metrics.hpp"
#include "runtime/worker_pool.hpp"
#include "sparse/dense_view.hpp"
#include "spgemm/spgemm.hpp"

namespace rrspmm::runtime {

using sparse::CsrMatrix;
using sparse::DenseMatrix;
using sparse::DenseMutView;
using sparse::DenseView;

/// Same contract as core::run_spmm (y pre-shaped caller storage, filled
/// in the caller's row order; a misshapen y throws invalid_matrix),
/// executed panel-parallel on `pool`. `metrics`, when given, counts the
/// panels and per-ISA kernel invocations. `kernel`, when given, forces
/// the SIMD backend selection; nullptr uses the process-wide active
/// configuration (RRSPMM_KERNEL_ISA). Every backend's result is bitwise
/// equal to the scalar reference.
/// DenseMatrix arguments convert implicitly.
void parallel_spmm(WorkerPool& pool, const core::ExecutionPlan& plan, DenseView x,
                   DenseMutView y, Metrics* metrics = nullptr,
                   const kernels::simd::KernelConfig* kernel = nullptr);

/// Same contract as core::run_sddmm (out[0, out_size) holds exactly
/// m.nnz() values, aligned with m's nonzero order), executed
/// panel-parallel on `pool`.
void parallel_sddmm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& m,
                    DenseView x, DenseView y, value_t* out, std::size_t out_size,
                    Metrics* metrics = nullptr,
                    const kernels::simd::KernelConfig* kernel = nullptr);

/// CSR×CSR through a plan built on the LEFT operand: c = a * b, c in
/// a's original row order. Symbolic runs pool-parallel in row blocks;
/// numeric fans out one task per ASpT row panel of the permuted row
/// space (matching parallel_spmm's task shape), each filling its target
/// rows' segments via spgemm::numeric_rows with the plan's row_perm as
/// processing order. Bitwise equal to spgemm::multiply(a, b) for every
/// thread count, accumulator choice and panel layout.
void parallel_spgemm(WorkerPool& pool, const core::ExecutionPlan& plan, const CsrMatrix& a,
                     const CsrMatrix& b, CsrMatrix& c, Metrics* metrics = nullptr,
                     const spgemm::SpgemmConfig& cfg = {});

}  // namespace rrspmm::runtime
