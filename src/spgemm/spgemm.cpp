#include "spgemm/spgemm.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "spgemm/accumulators.hpp"
#include "sparse/validate.hpp"

namespace rrspmm::spgemm {

const char* to_string(Accumulator a) {
  switch (a) {
    case Accumulator::hash: return "hash";
    case Accumulator::sort: return "sort";
    case Accumulator::auto_select: return "auto";
  }
  return "?";
}

namespace {

void check_shapes(const CsrMatrix& a, const CsrMatrix& b, const char* what) {
  if (a.cols() != b.rows()) {
    throw sparse::invalid_matrix(std::string(what) + ": A cols must equal B rows");
  }
}

/// Per-row choice between the sort and hash accumulators (wide B, or a
/// pinned configuration).
Accumulator resolve(const SpgemmConfig& cfg, offset_t upper_bound) {
  if (cfg.accumulator != Accumulator::auto_select) return cfg.accumulator;
  return upper_bound <= cfg.sort_threshold ? Accumulator::sort : Accumulator::hash;
}

/// The calling thread's dense scratch, prepared for `cols` columns.
/// Capacity persists across calls on a thread; contents do not.
DenseAccumulator& dense_scratch(index_t cols) {
  thread_local DenseAccumulator acc;
  acc.prepare(cols);
  return acc;
}

/// Emits row `out_row`'s contributions — A's row walked in storage
/// (ascending-j) order, each B row in storage (ascending-c) order — into
/// `acc`, which the caller has reset for this row. This order is the
/// determinism anchor: every accumulator and every re-execution sees the
/// identical contribution stream.
template <typename Acc>
offset_t accumulate_row(const CsrMatrix& a, const CsrMatrix& b, index_t out_row, Acc& acc,
                        index_t* cols_out, value_t* vals_out) {
  const auto acols = a.row_cols(out_row);
  const auto avals = a.row_vals(out_row);
  for (std::size_t t = 0; t < acols.size(); ++t) {
    const index_t j = acols[t];
    const value_t av = avals[t];
    const auto bcols = b.row_cols(j);
    const auto bvals = b.row_vals(j);
    for (std::size_t u = 0; u < bcols.size(); ++u) {
      const value_t p = av * bvals[u];
      acc.add(bcols[u], p);
    }
  }
  return acc.flush(cols_out, vals_out);
}

}  // namespace

offset_t row_upper_bound(const CsrMatrix& a, const CsrMatrix& b, index_t row) {
  offset_t ub = 0;
  for (const index_t j : a.row_cols(row)) ub += b.row_nnz(j);
  return ub;
}

void symbolic_rows(const CsrMatrix& a, const CsrMatrix& b, offset_t* counts, index_t row_begin,
                   index_t row_end, const SpgemmConfig& cfg) {
  if (cfg.probes) fault::hit(fault::points::kSpgemmSymbolic);
  // Accumulator-agnostic, so the symbolic structure never depends on the
  // numeric configuration. Narrow B: set a bit per product and popcount
  // the touched words. Wide B: gather-sort-unique per row.
  if (b.cols() <= kDenseMaxCols) {
    DenseAccumulator& acc = dense_scratch(b.cols());
    for (index_t i = row_begin; i < row_end; ++i) {
      for (const index_t j : a.row_cols(i)) {
        for (const index_t c : b.row_cols(j)) acc.mark(c);
      }
      counts[i - row_begin] = acc.count();
    }
    return;
  }
  std::vector<index_t> scratch;
  for (index_t i = row_begin; i < row_end; ++i) {
    scratch.clear();
    for (const index_t j : a.row_cols(i)) {
      const auto bcols = b.row_cols(j);
      scratch.insert(scratch.end(), bcols.begin(), bcols.end());
    }
    std::sort(scratch.begin(), scratch.end());
    const auto last = std::unique(scratch.begin(), scratch.end());
    counts[i - row_begin] = static_cast<offset_t>(last - scratch.begin());
  }
}

SymbolicResult symbolic(const CsrMatrix& a, const CsrMatrix& b, const SpgemmConfig& cfg) {
  check_shapes(a, b, "spgemm::symbolic");
  SymbolicResult res;
  res.rowptr.assign(static_cast<std::size_t>(a.rows()) + 1, 0);
  if (a.rows() > 0) {
    symbolic_rows(a, b, res.rowptr.data() + 1, 0, a.rows(), cfg);
  }
  for (std::size_t i = 1; i < res.rowptr.size(); ++i) res.rowptr[i] += res.rowptr[i - 1];
  for (index_t i = 0; i < a.rows(); ++i) res.upper_bound_nnz += row_upper_bound(a, b, i);
  res.flops = 2.0 * static_cast<double>(res.upper_bound_nnz);
  return res;
}

void numeric_rows(const CsrMatrix& a, const CsrMatrix& b, const std::vector<offset_t>& rowptr,
                  index_t* colidx, value_t* values, index_t row_begin, index_t row_end,
                  const SpgemmConfig& cfg, const std::vector<index_t>* row_order,
                  AccumulatorCounts* counts) {
  if (cfg.probes) fault::hit(fault::points::kSpgemmAccumulate);
  DenseAccumulator* dense = cfg.accumulator == Accumulator::auto_select &&
                                    b.cols() <= kDenseMaxCols
                                ? &dense_scratch(b.cols())
                                : nullptr;
  HashAccumulator hash;
  SortAccumulator sort;
  for (index_t p = row_begin; p < row_end; ++p) {
    const index_t r = row_order ? (*row_order)[static_cast<std::size_t>(p)] : p;
    const offset_t base = rowptr[static_cast<std::size_t>(r)];
    const offset_t expect = rowptr[static_cast<std::size_t>(r) + 1] - base;
    offset_t n;
    if (dense) {
      n = accumulate_row(a, b, r, *dense, colidx + base, values + base);
      if (counts) ++counts->dense_rows;
    } else if (const offset_t ub = row_upper_bound(a, b, r);
               resolve(cfg, ub) == Accumulator::sort) {
      sort.reset(ub);
      n = accumulate_row(a, b, r, sort, colidx + base, values + base);
      if (counts) ++counts->sort_rows;
    } else {
      hash.reset(ub);
      n = accumulate_row(a, b, r, hash, colidx + base, values + base);
      if (counts) ++counts->hash_rows;
    }
    if (n != expect) {
      throw sparse::invalid_matrix("spgemm::numeric_rows: row fill disagrees with symbolic count");
    }
  }
}

CsrMatrix multiply(const CsrMatrix& a, const CsrMatrix& b, const SpgemmConfig& cfg,
                   AccumulatorCounts* counts) {
  sparse::validate_csr(a, "spgemm::multiply A");
  sparse::validate_csr(b, "spgemm::multiply B");
  SymbolicResult sym = symbolic(a, b, cfg);
  std::vector<index_t> colidx(static_cast<std::size_t>(sym.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(sym.nnz()));
  if (a.rows() > 0) {
    numeric_rows(a, b, sym.rowptr, colidx.data(), values.data(), 0, a.rows(), cfg, nullptr,
                 counts);
  }
  return CsrMatrix(a.rows(), b.cols(), std::move(sym.rowptr), std::move(colidx),
                   std::move(values));
}

}  // namespace rrspmm::spgemm
