// Matrix Market (.mtx) writer — the interchange format of SuiteSparse
// and the Network Repository. The one reader is
// io::read_matrix_market_streamed (io/mm_stream.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace rrspmm::sparse {

/// Writes `m` in `matrix coordinate real general` format (1-based indices).
void write_matrix_market(const CsrMatrix& m, const std::string& path);
void write_matrix_market(const CsrMatrix& m, std::ostream& out);

}  // namespace rrspmm::sparse
