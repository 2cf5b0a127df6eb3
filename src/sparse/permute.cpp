#include "sparse/permute.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace rrspmm::sparse {

bool is_permutation(const std::vector<index_t>& perm, index_t n) {
  if (static_cast<index_t>(perm.size()) != n) return false;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (index_t v : perm) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

std::vector<index_t> invert_permutation(const std::vector<index_t>& perm) {
  std::vector<index_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<index_t>(i);
  }
  return inv;
}

std::vector<index_t> identity_permutation(index_t n) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), index_t{0});
  return p;
}

bool is_identity(const std::vector<index_t>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<index_t>(i)) return false;
  }
  return true;
}

CsrMatrix permute_rows(const CsrMatrix& m, const std::vector<index_t>& perm) {
  if (!is_permutation(perm, m.rows())) throw invalid_matrix("permute_rows: bad permutation");
  std::vector<offset_t> rowptr(static_cast<std::size_t>(m.rows()) + 1, 0);
  std::vector<index_t> colidx(static_cast<std::size_t>(m.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(m.nnz()));
  offset_t pos = 0;
  for (index_t i = 0; i < m.rows(); ++i) {
    const index_t src = perm[static_cast<std::size_t>(i)];
    const auto cols = m.row_cols(src);
    const auto vals = m.row_vals(src);
    std::copy(cols.begin(), cols.end(), colidx.begin() + pos);
    std::copy(vals.begin(), vals.end(), values.begin() + pos);
    pos += static_cast<offset_t>(cols.size());
    rowptr[static_cast<std::size_t>(i) + 1] = pos;
  }
  return CsrMatrix(m.rows(), m.cols(), std::move(rowptr), std::move(colidx), std::move(values));
}

CsrMatrix permute_cols(const CsrMatrix& m, const std::vector<index_t>& perm) {
  if (!is_permutation(perm, m.cols())) throw invalid_matrix("permute_cols: bad permutation");
  const std::vector<index_t> inv = invert_permutation(perm);
  std::vector<offset_t> rowptr = m.rowptr();
  std::vector<index_t> colidx(static_cast<std::size_t>(m.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(m.nnz()));
  // Relabel columns row by row, then restore the sorted-columns invariant.
  std::vector<std::pair<index_t, value_t>> tmp;
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    tmp.clear();
    tmp.reserve(cols.size());
    for (std::size_t j = 0; j < cols.size(); ++j) {
      tmp.emplace_back(inv[static_cast<std::size_t>(cols[j])], vals[j]);
    }
    std::sort(tmp.begin(), tmp.end());
    const offset_t base = rowptr[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < tmp.size(); ++j) {
      colidx[static_cast<std::size_t>(base) + j] = tmp[j].first;
      values[static_cast<std::size_t>(base) + j] = tmp[j].second;
    }
  }
  return CsrMatrix(m.rows(), m.cols(), std::move(rowptr), std::move(colidx), std::move(values));
}

CsrMatrix permute_symmetric(const CsrMatrix& m, const std::vector<index_t>& perm) {
  if (m.rows() != m.cols()) throw invalid_matrix("permute_symmetric requires a square matrix");
  return permute_cols(permute_rows(m, perm), perm);
}

DenseMatrix permute_dense_rows(const DenseMatrix& m, const std::vector<index_t>& perm) {
  if (!is_permutation(perm, m.rows())) throw invalid_matrix("permute_dense_rows: bad permutation");
  DenseMatrix out(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto src = m.row(perm[static_cast<std::size_t>(i)]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

DenseMatrix unpermute_dense_rows(const DenseMatrix& m, const std::vector<index_t>& perm) {
  if (!is_permutation(perm, m.rows())) throw invalid_matrix("unpermute_dense_rows: bad permutation");
  DenseMatrix out(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto src = m.row(i);
    std::copy(src.begin(), src.end(), out.row(perm[static_cast<std::size_t>(i)]).begin());
  }
  return out;
}

CsrMatrix transpose(const CsrMatrix& m) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(m.cols()) + 1, 0);
  for (index_t c : m.colidx()) rowptr[static_cast<std::size_t>(c) + 1]++;
  for (std::size_t i = 1; i < rowptr.size(); ++i) rowptr[i] += rowptr[i - 1];

  std::vector<index_t> colidx(static_cast<std::size_t>(m.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(m.nnz()));
  std::vector<offset_t> cursor(rowptr.begin(), rowptr.end() - 1);
  // Iterating source rows in order makes each output row's columns sorted.
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      const auto dst = static_cast<std::size_t>(cursor[static_cast<std::size_t>(cols[j])]++);
      colidx[dst] = i;
      values[dst] = vals[j];
    }
  }
  return CsrMatrix(m.cols(), m.rows(), std::move(rowptr), std::move(colidx), std::move(values));
}

}  // namespace rrspmm::sparse
