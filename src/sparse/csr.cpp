#include "sparse/csr.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sparse/validate.hpp"

namespace rrspmm::sparse {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> rowptr,
                     std::vector<index_t> colidx, std::vector<value_t> values)
    : rows_(rows), cols_(cols), rowptr_(std::move(rowptr)), colidx_(std::move(colidx)),
      values_(std::move(values)) {
  validate();
}

CsrMatrix CsrMatrix::from_coo(CooMatrix coo) {
  coo.sort_and_combine();
  // Entries appended through entries() skip add()'s bounds check. Sorted
  // by row, the first and last entry bound every row index; columns are
  // checked by validate().
  const std::vector<CooEntry>& es = coo.entries();
  if (!es.empty() && (es.front().row < 0 || es.back().row >= coo.rows())) {
    throw invalid_matrix("COO row index out of range");
  }

  CsrMatrix m;
  m.rows_ = coo.rows();
  m.cols_ = coo.cols();
  m.rowptr_.assign(static_cast<std::size_t>(coo.rows()) + 1, 0);
  m.colidx_.reserve(coo.entries().size());
  m.values_.reserve(coo.entries().size());
  for (const CooEntry& e : coo.entries()) {
    m.rowptr_[static_cast<std::size_t>(e.row) + 1]++;
    m.colidx_.push_back(e.col);
    m.values_.push_back(e.value);
  }
  for (std::size_t i = 1; i < m.rowptr_.size(); ++i) m.rowptr_[i] += m.rowptr_[i - 1];
  m.validate();
  return m;
}

CsrMatrix CsrMatrix::from_dense_rows(const std::vector<std::vector<value_t>>& dense) {
  const index_t rows = checked_index(static_cast<std::int64_t>(dense.size()));
  const index_t cols = rows > 0 ? checked_index(static_cast<std::int64_t>(dense[0].size())) : 0;
  CooMatrix coo(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    if (static_cast<index_t>(dense[static_cast<std::size_t>(i)].size()) != cols) {
      throw invalid_matrix("ragged dense row description");
    }
    for (index_t j = 0; j < cols; ++j) {
      const value_t v = dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (v != value_t{0}) coo.add(i, j, v);
    }
  }
  return from_coo(std::move(coo));
}

index_t CsrMatrix::max_row_nnz() const {
  index_t best = 0;
  for (index_t i = 0; i < rows_; ++i) best = std::max(best, row_nnz(i));
  return best;
}

void CsrMatrix::validate() const {
  validate_csr(rows_, cols_, rowptr_, colidx_, values_);
}

std::vector<std::vector<value_t>> CsrMatrix::to_dense() const {
  std::vector<std::vector<value_t>> out(
      static_cast<std::size_t>(rows_),
      std::vector<value_t>(static_cast<std::size_t>(cols_), value_t{0}));
  for (index_t i = 0; i < rows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      out[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols[j])] = vals[j];
    }
  }
  return out;
}

}  // namespace rrspmm::sparse
