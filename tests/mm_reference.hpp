// Reference Matrix Market reader, kept as the istream parser the library
// once shipped: line-oriented header parsing, `>>` extraction of every
// entry into a CooMatrix, then CsrMatrix::from_coo. It shares no code
// with io::read_matrix_market_streamed, so the test suite and the ingest
// bench hold the library's chunked reader to its output bit for bit.
// Header-only and free of gtest, so benches can include it too.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>

#include "io/mm_stream.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace rrspmm::test::reference {

inline std::string mm_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

inline sparse::CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw io_error("empty Matrix Market stream");
  std::istringstream hs(line);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") throw io_error("not a Matrix Market file");
  if (mm_lower(object) != "matrix" || mm_lower(format) != "coordinate") {
    throw io_error("only 'matrix coordinate' Matrix Market files are supported");
  }
  const std::string f = mm_lower(field);
  const std::string sym = mm_lower(symmetry);
  if (f != "real" && f != "integer" && f != "pattern") throw io_error("unsupported field");
  if (sym != "general" && sym != "symmetric") throw io_error("unsupported symmetry");
  const bool pattern = f == "pattern";
  const bool symmetric = sym == "symmetric";

  bool have_size = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') {
      have_size = true;
      break;
    }
  }
  if (!have_size) throw io_error("missing Matrix Market size line");
  std::istringstream ss(line);
  std::int64_t rows = 0, cols = 0, nnz = 0;
  if (!(ss >> rows >> cols >> nnz)) throw io_error("malformed size line: " + line);
  if (rows < 0 || cols < 0 || nnz < 0) throw io_error("negative Matrix Market size");
  try {
    checked_index(rows);
    checked_index(cols);
  } catch (const invalid_matrix& e) {
    throw io_error(e.what());
  }
  if (nnz > rows * cols) throw io_error("Matrix Market entry count exceeds rows*cols");

  sparse::CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // Grow as entries arrive: the size line is untrusted.
  coo.reserve(std::min<std::int64_t>(symmetric ? 2 * nnz : nnz, std::int64_t{1} << 20));
  for (std::int64_t k = 0; k < nnz; ++k) {
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    if (!(in >> r >> c)) throw io_error("malformed or truncated entry list");
    if (!pattern && !(in >> v)) throw io_error("malformed or truncated value");
    if (r < 1 || r > rows || c < 1 || c > cols) throw io_error("entry index out of range");
    const auto ri = static_cast<index_t>(r - 1);
    const auto ci = static_cast<index_t>(c - 1);
    coo.add(ri, ci, static_cast<value_t>(v));
    if (symmetric && ri != ci) coo.add(ci, ri, static_cast<value_t>(v));
  }
  return sparse::CsrMatrix::from_coo(coo);
}

inline sparse::CsrMatrix read_matrix_market(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw io_error("cannot open " + path);
  return read_matrix_market(f);
}

/// Same shape, structure and value bits (float == would equate -0 and 0).
inline bool bitwise_equal(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.rowptr() == b.rowptr() &&
         a.colidx() == b.colidx() && a.values().size() == b.values().size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(value_t)) == 0;
}

/// Reads `path` with io::read_matrix_market_streamed at chunk sizes 1,
/// 4096, the default and whole-file, and compares each result with the
/// reference reader bit for bit. Returns "" when all agree, else the
/// first chunk size that differs.
inline std::string streamed_mismatch(const std::string& path) {
  const sparse::CsrMatrix ref = read_matrix_market(path);
  const std::size_t chunks[] = {1, 4096, 1u << 20, ~std::size_t{0} >> 1};
  for (const std::size_t chunk : chunks) {
    if (!bitwise_equal(io::read_matrix_market_streamed(path, {}, chunk), ref)) {
      return "chunk " + std::to_string(chunk);
    }
  }
  return "";
}

}  // namespace rrspmm::test::reference
