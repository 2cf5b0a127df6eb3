// Compressed Sparse Row matrix — the library's working format (paper §2.1).
//
//   rowptr[i] .. rowptr[i+1]-1  index the nonzeros of row i inside
//   colidx / values. Columns within a row are kept sorted ascending; this
//   is an invariant every producer maintains and `validate()` checks.
#pragma once

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/types.hpp"

namespace rrspmm::sparse {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of pre-built arrays. Throws invalid_matrix if the
  /// structure is inconsistent (see validate()).
  CsrMatrix(index_t rows, index_t cols, std::vector<offset_t> rowptr,
            std::vector<index_t> colidx, std::vector<value_t> values);

  /// Converts from COO — the library's one COO→CSR assembly. Takes the
  /// COO by value and sorts it in place (pass an expiring one with
  /// std::move to avoid a copy). Duplicates are summed left to right in
  /// arrival order; entries need not be sorted. Throws invalid_matrix
  /// if an entry lies outside the COO's dimensions.
  static CsrMatrix from_coo(CooMatrix coo);

  /// Builds a CSR from an initializer-friendly dense description
  /// (tests use this for small hand-written matrices). Zero entries are
  /// skipped.
  static CsrMatrix from_dense_rows(const std::vector<std::vector<value_t>>& dense);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  offset_t nnz() const { return static_cast<offset_t>(colidx_.size()); }

  const std::vector<offset_t>& rowptr() const { return rowptr_; }
  const std::vector<index_t>& colidx() const { return colidx_; }
  const std::vector<value_t>& values() const { return values_; }
  std::vector<value_t>& values() { return values_; }

  /// Number of nonzeros in row i.
  index_t row_nnz(index_t i) const {
    return static_cast<index_t>(rowptr_[static_cast<std::size_t>(i) + 1] - rowptr_[static_cast<std::size_t>(i)]);
  }

  /// Column indices of row i (sorted ascending).
  std::span<const index_t> row_cols(index_t i) const {
    return {colidx_.data() + rowptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }
  /// Values of row i, aligned with row_cols(i).
  std::span<const value_t> row_vals(index_t i) const {
    return {values_.data() + rowptr_[static_cast<std::size_t>(i)],
            static_cast<std::size_t>(row_nnz(i))};
  }

  /// Maximum row length (d_max in the paper's LSH complexity bound).
  index_t max_row_nnz() const;

  /// Structural equality (shape, pattern and values all equal).
  bool operator==(const CsrMatrix& other) const = default;

  /// Checks all invariants: monotone rowptr starting at 0 and ending at
  /// nnz, in-range sorted strictly-increasing columns per row. Throws
  /// invalid_matrix on the first violation.
  void validate() const;

  /// Densifies (small matrices only; tests and examples).
  std::vector<std::vector<value_t>> to_dense() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> rowptr_{0};
  std::vector<index_t> colidx_;
  std::vector<value_t> values_;
};

}  // namespace rrspmm::sparse
