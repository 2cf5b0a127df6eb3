// Row/column permutation and transpose utilities.
//
// A permutation is represented as `perm` where perm[new_position] =
// old_index ("gather" form): row i of the permuted matrix is row perm[i]
// of the original. This matches the output of the clustering reorderer,
// which emits original row ids cluster by cluster.
#pragma once

#include <vector>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "sparse/types.hpp"

namespace rrspmm::sparse {

/// True iff `perm` is a permutation of 0..n-1.
bool is_permutation(const std::vector<index_t>& perm, index_t n);

/// Inverts a gather permutation: result[old] = new.
std::vector<index_t> invert_permutation(const std::vector<index_t>& perm);

/// Returns the identity permutation of length n.
std::vector<index_t> identity_permutation(index_t n);

/// True iff perm[i] == i for every i (an empty vector is the identity).
bool is_identity(const std::vector<index_t>& perm);

/// Gathers rows: out row i = in row perm[i]. Columns are untouched, so the
/// dense operand X of SpMM needs no change — this is the paper's key
/// distinction between row-reordering and vertex-reordering.
CsrMatrix permute_rows(const CsrMatrix& m, const std::vector<index_t>& perm);

/// Relabels columns: out column inv[c] = in column c where inv =
/// invert_permutation(perm). Used by the vertex-reordering control, which
/// must permute X accordingly.
CsrMatrix permute_cols(const CsrMatrix& m, const std::vector<index_t>& perm);

/// Symmetric (vertex) reordering: permute_rows + permute_cols with the
/// same permutation.
CsrMatrix permute_symmetric(const CsrMatrix& m, const std::vector<index_t>& perm);

/// Gathers dense rows: out row i = in row perm[i].
DenseMatrix permute_dense_rows(const DenseMatrix& m, const std::vector<index_t>& perm);

/// Scatter of SpMM output back to original row order: given Y computed on
/// a row-permuted sparse matrix, returns Y in the original order
/// (out row perm[i] = in row i). Plan execution never needs it — the
/// kernels write through the plan's row_perm — but it turns a permuted
/// kernel result into a reference to check them against.
DenseMatrix unpermute_dense_rows(const DenseMatrix& m, const std::vector<index_t>& perm);

/// Transpose (CSR -> CSR of the transpose). Counting sort, O(nnz + cols).
CsrMatrix transpose(const CsrMatrix& m);

}  // namespace rrspmm::sparse
