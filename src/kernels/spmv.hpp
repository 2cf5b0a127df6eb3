// Host SpMV (sparse matrix-vector multiply): y = S * x.
//
// Included as the paper's conceptual foil (§1, §6): for SpMV the dense
// operand is a single vector, so *spatial* locality among nearby columns
// exists and classic vertex reordering (METIS/RCM-style) helps — whereas
// for SpMM each column is a K-wide row and only *temporal* row-level
// reuse matters, which is what the paper's row reordering targets. The
// ablation bench uses this kernel pair to reproduce that contrast.
#pragma once

#include <vector>

#include "sparse/csr.hpp"

namespace rrspmm::kernels {

/// y = s * x, single-threaded. y is resized to s.rows(); x must have
/// s.cols() entries.
void spmv_rowwise(const sparse::CsrMatrix& s, const std::vector<value_t>& x,
                  std::vector<value_t>& y);

}  // namespace rrspmm::kernels
