#include "kernels/simd/specialize.hpp"

#include "aspt/aspt.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::kernels::simd {

SpecializationPlan specialize_rows(const sparse::CsrMatrix& m) {
  SpecializationPlan p;
  p.rows = static_cast<std::uint64_t>(m.rows());
  for (index_t i = 0; i < m.rows(); ++i) {
    const index_t nnz = m.row_nnz(i);
    if (nnz > 0 && nnz <= kShortRowMax) ++p.short_rows;
  }
  return p;
}

SpecializationPlan specialize_plan(const aspt::AsptMatrix& tiled) {
  SpecializationPlan p = specialize_rows(tiled.sparse_part());
  for (const aspt::Panel& panel : tiled.panels()) {
    if (panel.dense_cols.empty()) continue;
    const auto full = static_cast<offset_t>(panel.dense_cols.size());
    for (std::size_t r = 0; r + 1 < panel.dense_rowptr.size(); ++r) {
      const offset_t nnz = panel.dense_rowptr[r + 1] - panel.dense_rowptr[r];
      if (nnz > 0) ++p.dense_tile_rows;
      if (nnz == full) ++p.dense_full_rows;
    }
  }
  return p;
}

}  // namespace rrspmm::kernels::simd
