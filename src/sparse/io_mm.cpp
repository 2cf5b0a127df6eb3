#include "sparse/io_mm.hpp"

#include <fstream>

namespace rrspmm::sparse {

void write_matrix_market(const CsrMatrix& m, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
  for (index_t i = 0; i < m.rows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      out << (i + 1) << ' ' << (cols[j] + 1) << ' ' << vals[j] << '\n';
    }
  }
}

void write_matrix_market(const CsrMatrix& m, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw io_error("cannot open " + path + " for writing");
  write_matrix_market(m, f);
}

}  // namespace rrspmm::sparse
