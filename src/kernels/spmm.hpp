// Host SpMM kernels.
//
// These are the numerical ground truth for the library: the simulator in
// gpusim models *traffic*, these compute *values*, and the test suite
// checks that every execution strategy (row-wise, ASpT, ASpT + either
// round of reordering) produces identical results up to fp rounding.
// They are also real, usable CPU kernels — the ASpT-structured variant
// enjoys the same locality benefits on a CPU cache hierarchy, which the
// micro benchmarks measure.
//
// Every kernel runs single-threaded on the calling thread, as a thin
// wrapper over the SIMD dispatch layer (kernels/simd): the per-row math
// runs through the KernelTable selected by a simd::KernelConfig. The
// multi-core path is runtime::parallel_spmm (or the Server), which fans
// the row-range entry points out over a runtime::WorkerPool, one ASpT
// row panel per task. The overloads without a config use the
// process-wide simd::active_config() (RRSPMM_KERNEL_ISA). Every backend
// reproduces the scalar reference's fused arithmetic bit for bit, so
// results do not depend on which ISA the dispatcher picked.
//
// Dense operands are passed as borrowed views (sparse/dense_view.hpp) —
// the zero-copy ABI the serving runtime rides on. DenseMatrix converts
// to a view implicitly, so owning callers are unaffected; a view over
// caller-provided storage runs the identical code path and therefore
// produces byte-identical results.
//
// Reordered plans: the ASpT entry points take an optional row map
// (`y_rows`, a plan's row_perm). Tiled row i then accumulates into Y row
// y_rows[i] instead of row i, so a reordered plan writes the caller's row
// order directly, with no permuted temporary and no scatter pass. Each
// row still adds its dense-tile terms, then its sparse terms, in the same
// nonzero order; only the address moves, so the bits are unchanged.
#pragma once

#include <vector>

#include "aspt/aspt.hpp"
#include "kernels/simd/dispatch.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_view.hpp"

namespace rrspmm::kernels {

using aspt::AsptMatrix;
using sparse::CsrMatrix;
using sparse::DenseMatrix;
using sparse::DenseMutView;
using sparse::DenseView;

/// Y = S * X, row-wise (paper Alg 1). Y is overwritten; it must be
/// S.rows() x X.cols(); X must be S.cols() x K.
void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y);
void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y,
                  const simd::KernelConfig& cfg);

/// Row-range variant: computes (and zeroes) only Y rows
/// [row_begin, row_end). Disjoint ranges touch disjoint Y rows and each
/// row accumulates in the same order as the full kernel, so ranges run
/// concurrently (e.g. on a runtime::WorkerPool) are bitwise equal to it.
void spmm_rowwise(const CsrMatrix& s, DenseView x, DenseMutView y, index_t row_begin,
                  index_t row_end, const simd::KernelConfig& cfg);

/// Y = S * X over an ASpT tiling: dense-tile phase with an aligned
/// staged panel buffer standing in for shared memory, then the sparse
/// remainder row-wise. `sparse_order`, if non-null, is the processing
/// order of the sparse-part rows (affects performance only; the result
/// is identical). `y_rows`, if non-null, is a permutation of [0, rows)
/// and tiled row i is written to Y row (*y_rows)[i]; null writes the
/// tiled row order. A map of the wrong length throws invalid_matrix.
void spmm_aspt(const AsptMatrix& a, DenseView x, DenseMutView y,
               const std::vector<index_t>* sparse_order = nullptr);
void spmm_aspt(const AsptMatrix& a, DenseView x, DenseMutView y,
               const std::vector<index_t>* sparse_order, const simd::KernelConfig& cfg,
               const std::vector<index_t>* y_rows = nullptr);

/// Row-range ASpT SpMM: zeroes the Y rows of tiled rows [row_begin,
/// row_end) (through `y_rows` as in spmm_aspt), then runs the dense-tile
/// phase clipped to those rows and the sparse remainder row-wise over
/// them. spmm_aspt is this same body over [0, rows). Race-free across
/// disjoint ranges (each range writes only its own Y rows), idempotent on
/// re-run, and bitwise equal to spmm_aspt when the ranges partition
/// [0, rows) — every row accumulates dense contributions first, then
/// sparse, in the same nonzero order. The sparse processing order is
/// irrelevant here because each row's sum is independent; panel-aligned
/// ranges reproduce the staging locality.
void spmm_aspt_row_range(const AsptMatrix& a, DenseView x, DenseMutView y, index_t row_begin,
                         index_t row_end, const simd::KernelConfig& cfg,
                         const std::vector<index_t>* y_rows = nullptr);

}  // namespace rrspmm::kernels
