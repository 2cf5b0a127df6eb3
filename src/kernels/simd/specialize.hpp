// Plan-specialized AOT kernel selection: the per-matrix record built at
// plan-build time that tells the dispatcher which specialized table
// entries (kernels_spec.hpp) a matrix can profit from.
//
// The paper's transformation already computes everything the record
// needs — the ASpT tiling exposes per-row nonzero counts of the sparse
// remainder and the dense-tile shape of every panel — so classification
// is a single O(rows) sweep over data the plan builder has in cache.
// JITSPMM (PAPERS.md) generates per-matrix instruction streams at
// runtime; this layer is the AOT equivalent: a fixed menu of
// template-instantiated variants (fully-unrolled short rows, compile-time
// K = 32/64/128), chosen per matrix through the SpecializationPlan and
// cached with the ExecutionPlan in the single-flight PlanCache.
//
// Specialization never changes what is computed: every variant preserves
// the scalar reference's per-element accumulation order (see
// kernels_spec.hpp), so the specialized path stays bitwise-identical to
// the generic PR 5 kernels on the non-fma path.
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

/// Row classes of the sparse remainder, by nonzero count.
enum class RowClass : std::uint8_t {
  empty = 0,      ///< nnz == 0 — skipped entirely
  short_row = 1,  ///< nnz <= kShortRowMax — fully-unrolled bodies
  medium_row = 2, ///< nnz <= kMediumRowMax
  long_row = 3,   ///< everything above
};
inline constexpr std::size_t kRowClassCount = 4;

/// Class thresholds (inclusive upper bound on row nnz). Short rows are
/// where per-row loop overhead dominates the useful FLOPs; 4 keeps the
/// unrolled-body count small while covering the mass of power-law tails.
inline constexpr index_t kShortRowMax = 4;
inline constexpr index_t kMediumRowMax = 32;

/// The kernel variant chosen for a row class at plan-build time.
enum class SpecVariant : std::uint8_t {
  generic = 0,         ///< the PR 5 generic register-blocked loop
  unrolled_short = 1,  ///< fully-unrolled nnz <= kShortRowMax bodies
  kwidth = 2,          ///< compile-time K instantiation (kSpecKWidths)
};

constexpr RowClass classify_row(index_t nnz, index_t short_max = kShortRowMax,
                                index_t medium_max = kMediumRowMax) {
  if (nnz <= 0) return RowClass::empty;
  if (nnz <= short_max) return RowClass::short_row;
  if (nnz <= medium_max) return RowClass::medium_row;
  return RowClass::long_row;
}

/// Per-matrix specialization record: class boundaries, the row-class
/// histogram of the sparse remainder, the dense-panel shape summary, and
/// the variant chosen for each class. Built once per plan
/// (core::build_plan / build_plan_nr), cached with the plan in the
/// PlanCache, serialized in plan files (version 3), and carried to the
/// kernels through KernelConfig::spec.
struct SpecializationPlan {
  /// Build-time master switch; a disabled record always selects the
  /// generic entries regardless of KernelConfig::spec_mode.
  bool enabled = true;
  index_t short_max = kShortRowMax;
  index_t medium_max = kMediumRowMax;
  /// Sparse-remainder rows per RowClass.
  std::uint64_t rows_by_class[kRowClassCount] = {0, 0, 0, 0};
  /// Panels carrying a non-empty dense tile (ASpT dense-panel class).
  std::uint64_t dense_panels = 0;
  /// Rows with at least one dense-tile nonzero, over all panels.
  std::uint64_t dense_tile_rows = 0;
  /// Rows whose dense tile is *fully* populated (row nnz == the panel's
  /// dense-column count), over all panels — the rows the micro-GEMM
  /// entry (KernelTable::spmm_panel_dense) can pair. Serialized from
  /// plan-file version 4; older files recompute it on load.
  std::uint64_t dense_full_rows = 0;
  /// Chosen SpecVariant per RowClass (uint8 for stable serialization).
  std::uint8_t variant[kRowClassCount] = {0, 0, 0, 0};

  RowClass classify(index_t nnz) const { return classify_row(nnz, short_max, medium_max); }
  SpecVariant class_variant(RowClass c) const {
    return static_cast<SpecVariant>(variant[static_cast<std::size_t>(c)]);
  }
  /// True when the short-row class is populated and was assigned the
  /// unrolled bodies — the condition for the runtime-K classed driver.
  bool wants_short_unroll() const {
    return rows_by_class[static_cast<std::size_t>(RowClass::short_row)] > 0 &&
           class_variant(RowClass::short_row) == SpecVariant::unrolled_short;
  }
  std::uint64_t total_rows() const {
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < kRowClassCount; ++c) n += rows_by_class[c];
    return n;
  }
  /// Fraction of dense-tile rows the micro-GEMM can pair; select_kernels
  /// picks the micro-GEMM only when it is high enough.
  double dense_full_fraction() const {
    return dense_tile_rows == 0
               ? 0.0
               : static_cast<double>(dense_full_rows) / static_cast<double>(dense_tile_rows);
  }
};

/// Builds the record for a tiled matrix: histograms the sparse
/// remainder's row lengths, summarises the dense tiles, and assigns
/// variants (short -> unrolled_short, medium/long/dense -> kwidth).
SpecializationPlan specialize_plan(const aspt::AsptMatrix& tiled);

/// Row-only variant for paths without a tiling (plain CSR row ranges):
/// same histogram and variant assignment, no dense-panel statistics.
SpecializationPlan specialize_rows(const sparse::CsrMatrix& m);

}  // namespace rrspmm::kernels::simd
