// Row-major dense matrix used as the X (input) and Y (output) operands of
// SpMM / SDDMM. Row-major layout matches the access pattern of the GPU
// kernels being modelled: a warp reads one row of X contiguously.
//
// Storage is always 64-byte aligned (sparse/aligned.hpp); by default the
// leading dimension equals cols(), so the data is densely packed. The
// `aligned()` factory additionally pads the leading dimension so *every
// row pointer* is 64-byte aligned — the layout the SIMD kernel layer
// (src/kernels/simd) prefers for vector loads. All kernels accept both
// layouts and produce bitwise-identical results either way.
#pragma once

#include <cstddef>
#include <span>

#include "sparse/aligned.hpp"
#include "sparse/types.hpp"

namespace rrspmm::sparse {

class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Creates a rows x cols matrix, zero-initialised, packed (ld == cols).
  DenseMatrix(index_t rows, index_t cols) : DenseMatrix(rows, cols, cols) {}

  /// Creates a matrix copying `data` (size must be rows*cols), packed.
  DenseMatrix(index_t rows, index_t cols, const std::vector<value_t>& data)
      : DenseMatrix(rows, cols) {
    if (data.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
      throw invalid_matrix("dense data size mismatch");
    }
    std::copy(data.begin(), data.end(), data_.begin());
  }

  /// Creates a rows x cols matrix whose leading dimension is padded up to
  /// a 64-byte multiple, so every row pointer is vector-aligned. Padding
  /// elements are zero and never observed by element accessors.
  static DenseMatrix aligned(index_t rows, index_t cols) {
    return DenseMatrix(rows, cols, aligned_ld(cols));
  }

  /// Creates a packed rows x cols matrix whose elements are left
  /// uninitialised, for outputs a kernel overwrites in full (the
  /// server's owned SpMM result: spmm_aspt writes every element of every
  /// row), so no serial zero-fill runs ahead of the kernel's own.
  static DenseMatrix uninitialized(index_t rows, index_t cols) {
    return DenseMatrix(rows, cols, cols, /*zero=*/false);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  /// Leading dimension: elements between consecutive row starts
  /// (== cols() unless constructed via aligned()).
  index_t ld() const { return ld_; }
  bool padded() const { return ld_ != cols_; }
  /// Logical element count (rows * cols, excluding any padding).
  std::size_t size() const {
    return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
  }

  /// Raw storage pointer. Rows are contiguous only when !padded();
  /// ld()-stride addressing is always valid.
  value_t* data() { return data_.data(); }
  const value_t* data() const { return data_.data(); }

  /// Mutable view of row i.
  std::span<value_t> row(index_t i) {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld_),
            static_cast<std::size_t>(cols_)};
  }
  std::span<const value_t> row(index_t i) const {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(ld_),
            static_cast<std::size_t>(cols_)};
  }

  value_t& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(ld_) + static_cast<std::size_t>(j)];
  }
  value_t operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(ld_) + static_cast<std::size_t>(j)];
  }

  /// Sets every logical element to `v` (padding stays zero).
  void fill(value_t v);

  /// Maximum absolute elementwise difference against `other`; both
  /// matrices must have identical logical shape (leading dimensions may
  /// differ). Used by tests and examples to verify kernel agreement.
  double max_abs_diff(const DenseMatrix& other) const;

 private:
  DenseMatrix(index_t rows, index_t cols, index_t ld, bool zero = true)
      : rows_(rows), cols_(cols), ld_(ld) {
    if (rows < 0 || cols < 0) throw invalid_matrix("negative dense dimensions");
    const std::size_t n = static_cast<std::size_t>(rows) * static_cast<std::size_t>(ld);
    if (zero) {
      data_.assign(n, value_t{0});
    } else {
      data_.resize(n);  // default-initialised by AlignedAllocator
    }
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
  AlignedVector<value_t> data_;
};

/// Deterministically fills `m` with uniform values in [-1, 1) derived from
/// `seed` (the paper multiplies by "randomly generated dense matrices").
/// Values depend on (i, j) position only, not the leading dimension, so a
/// padded matrix receives exactly the same elements as a packed one.
void fill_random(DenseMatrix& m, std::uint64_t seed);

}  // namespace rrspmm::sparse
