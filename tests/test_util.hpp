// Shared helpers for the rrspmm test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"

namespace rrspmm::test {

using sparse::CsrMatrix;
using sparse::DenseMatrix;

/// Scratch-file path in the system temp directory, unique to the running
/// test: it carries the gtest suite and test name and the process id, so
/// tests run concurrently (`ctest -j`) never share a file. `stem` goes
/// last, so its extension is kept.
inline std::string temp_path(const std::string& stem) {
  std::string name = "rrspmm_";
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  name += std::to_string(::getpid()) + "_" + stem;
  std::replace(name.begin(), name.end(), '/', '_');  // parameterised test names
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A temp_path() that is removed when it goes out of scope.
struct TempFile {
  explicit TempFile(const std::string& stem) : path(temp_path(stem)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string path;
};

/// Builds a CSR from a dense row description (0 entries skipped).
inline CsrMatrix csr(const std::vector<std::vector<value_t>>& rows) {
  return CsrMatrix::from_dense_rows(rows);
}

/// 6x7 matrix used by the Alg 3 walk-through tests. Designed to satisfy
/// the similarity facts the paper states for its Fig 1a example:
///   S0 = {0,4}, S4 = {0,3,4}  ->  J(S0,S4) = 2/3
///   S2 = {0,3}               ->  J(S2,S0) = 1/3 (the requeued pair)
/// Rows 1, 3, 5 are mutually dissimilar fillers.
inline CsrMatrix alg3_matrix() {
  return csr({
      {1, 0, 0, 0, 1, 0, 0},  // row 0: {0,4}
      {0, 1, 0, 0, 0, 0, 1},  // row 1: {1,6}
      {1, 0, 0, 1, 0, 0, 0},  // row 2: {0,3}
      {0, 0, 1, 0, 0, 1, 0},  // row 3: {2,5}
      {1, 0, 0, 1, 1, 0, 0},  // row 4: {0,3,4}
      {0, 0, 0, 0, 0, 0, 1},  // row 5: {6}
  });
}

/// Dense SpMM reference: Y = S * X computed through the densified matrix.
inline DenseMatrix dense_spmm(const CsrMatrix& s, const DenseMatrix& x) {
  DenseMatrix y(s.rows(), x.cols());
  const auto d = s.to_dense();
  for (index_t i = 0; i < s.rows(); ++i) {
    for (index_t c = 0; c < s.cols(); ++c) {
      const value_t v = d[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
      if (v == value_t{0}) continue;
      for (index_t k = 0; k < x.cols(); ++k) y(i, k) += v * x(c, k);
    }
  }
  return y;
}

/// Dense SDDMM reference aligned with s's nonzero order.
inline std::vector<value_t> dense_sddmm(const CsrMatrix& s, const DenseMatrix& x,
                                        const DenseMatrix& y) {
  std::vector<value_t> out(static_cast<std::size_t>(s.nnz()));
  for (index_t i = 0; i < s.rows(); ++i) {
    const auto cols = s.row_cols(i);
    const auto vals = s.row_vals(i);
    const offset_t base = s.rowptr()[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < cols.size(); ++j) {
      value_t dot = 0;
      for (index_t k = 0; k < x.cols(); ++k) dot += y(i, k) * x(cols[j], k);
      out[static_cast<std::size_t>(base) + j] = vals[j] * dot;
    }
  }
  return out;
}

}  // namespace rrspmm::test
