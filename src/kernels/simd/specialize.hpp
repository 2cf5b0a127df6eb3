// Plan-specialized AOT kernel selection: the per-matrix record of the
// tiling facts select_kernels (dispatch.hpp) reads to choose among the
// specialized table entries (kernels_spec.hpp).
//
// The paper's transformation already computes everything the record
// needs — the ASpT tiling exposes per-row nonzero counts of the sparse
// remainder and the dense-tile shape of every panel — so building it is
// a single O(rows) sweep over data the plan builder has in cache.
// JITSPMM (PAPERS.md) generates per-matrix instruction streams at
// runtime; this layer is the AOT equivalent: a fixed menu of
// template-instantiated variants (fully-unrolled short rows, compile-time
// K = 32/64/128), chosen per matrix from this record.
//
// Specialization never changes what is computed: every variant preserves
// the scalar reference's per-element accumulation order (see
// kernels_spec.hpp), so the specialized path stays bitwise-identical to
// the generic kernels.
#pragma once

#include <cstdint>

#include "sparse/types.hpp"

namespace rrspmm::aspt {
class AsptMatrix;
}
namespace rrspmm::sparse {
class CsrMatrix;
}

namespace rrspmm::kernels::simd {

/// Largest row nonzero count the fully-unrolled short-row bodies cover.
/// Short rows are where per-row loop overhead dominates the useful FLOPs;
/// 4 keeps the unrolled-body count small while covering the mass of
/// power-law tails.
inline constexpr index_t kShortRowMax = 4;

/// Per-matrix specialization record: the tiling facts select_kernels
/// reads. Built from the tiling by core::build_plan, build_plan_nr and
/// load_plan, and carried to the kernels through KernelConfig::spec.
struct SpecializationPlan {
  /// Sparse-remainder rows (specialize_rows: matrix rows).
  std::uint64_t rows = 0;
  /// Of those, rows with 1..kShortRowMax nonzeros.
  std::uint64_t short_rows = 0;
  /// Rows with at least one dense-tile nonzero, over all panels.
  std::uint64_t dense_tile_rows = 0;
  /// Rows whose dense tile is *fully* populated (row nnz == the panel's
  /// dense-column count), over all panels — the rows the micro-GEMM
  /// entry (KernelTable::spmm_panel_dense) can pair.
  std::uint64_t dense_full_rows = 0;

  /// True when the unrolled short-row bodies have rows to run on.
  bool has_short_rows() const { return short_rows > 0; }
  std::uint64_t total_rows() const { return rows; }
  /// Fraction of dense-tile rows the micro-GEMM can pair; select_kernels
  /// picks the micro-GEMM only when it is high enough.
  double dense_full_fraction() const {
    return dense_tile_rows == 0
               ? 0.0
               : static_cast<double>(dense_full_rows) / static_cast<double>(dense_tile_rows);
  }

  bool operator==(const SpecializationPlan&) const = default;
};

/// Builds the record for a tiled matrix: counts the sparse remainder's
/// short rows and summarises the dense tiles.
SpecializationPlan specialize_plan(const aspt::AsptMatrix& tiled);

/// Row-only variant for paths without a tiling (plain CSR row ranges):
/// the short-row count, no dense-tile statistics.
SpecializationPlan specialize_rows(const sparse::CsrMatrix& m);

}  // namespace rrspmm::kernels::simd
