#include "kernels/spmv.hpp"

#include "sparse/validate.hpp"

namespace rrspmm::kernels {

void spmv_rowwise(const sparse::CsrMatrix& s, const std::vector<value_t>& x,
                  std::vector<value_t>& y) {
  sparse::validate_csr(s, "spmv_rowwise");
  if (static_cast<index_t>(x.size()) != s.cols()) {
    throw sparse::invalid_matrix("SpMV: x size must equal S cols");
  }
  y.assign(static_cast<std::size_t>(s.rows()), value_t{0});
  for (index_t i = 0; i < s.rows(); ++i) {
    const auto cols = s.row_cols(i);
    const auto vals = s.row_vals(i);
    value_t acc = 0;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      acc += vals[j] * x[static_cast<std::size_t>(cols[j])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

}  // namespace rrspmm::kernels
