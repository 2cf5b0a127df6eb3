#include "sparse/validate.hpp"

#include <string>

#include "sparse/csr.hpp"

namespace rrspmm::sparse {

void validate_csr(index_t rows, index_t cols, const std::vector<offset_t>& rowptr,
                  const std::vector<index_t>& colidx, const std::vector<value_t>& values,
                  const char* what) {
  const auto fail = [&](const std::string& msg) {
    throw invalid_matrix(std::string(what) + ": " + msg);
  };
  if (rows < 0 || cols < 0) fail("negative dimensions");
  if (rowptr.size() != static_cast<std::size_t>(rows) + 1) fail("rowptr size must be rows+1");
  if (rowptr.front() != 0) fail("rowptr must start at 0");
  if (rowptr.back() != static_cast<offset_t>(colidx.size())) fail("rowptr must end at nnz");
  if (colidx.size() != values.size()) fail("colidx/values size mismatch");
  // Monotone rowptr from 0 to nnz keeps every entry in [0, nnz], so the
  // column scans below stay inside colidx. Check all rows before any scan.
  for (index_t i = 0; i < rows; ++i) {
    if (rowptr[static_cast<std::size_t>(i) + 1] < rowptr[static_cast<std::size_t>(i)]) {
      fail("rowptr not monotone at row " + std::to_string(i));
    }
  }
  for (index_t i = 0; i < rows; ++i) {
    const offset_t lo = rowptr[static_cast<std::size_t>(i)];
    const offset_t hi = rowptr[static_cast<std::size_t>(i) + 1];
    for (offset_t j = lo; j < hi; ++j) {
      const index_t c = colidx[static_cast<std::size_t>(j)];
      if (c < 0 || c >= cols) fail("column out of range at row " + std::to_string(i));
      if (j > lo && colidx[static_cast<std::size_t>(j) - 1] >= c) {
        fail("columns not strictly increasing at row " + std::to_string(i));
      }
    }
  }
}

void validate_csr(const CsrMatrix& m, const char* what) {
  validate_csr(m.rows(), m.cols(), m.rowptr(), m.colidx(), m.values(), what);
}

}  // namespace rrspmm::sparse
