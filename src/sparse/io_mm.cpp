#include "sparse/io_mm.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace rrspmm::sparse {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

MmBanner parse_mm_banner(const std::string& banner_line) {
  std::istringstream hs(banner_line);
  std::string banner, object, format, field, symmetry;
  hs >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") throw io_error("not a Matrix Market file");
  if (object.empty() || format.empty() || field.empty() || symmetry.empty()) {
    throw io_error("truncated Matrix Market banner");
  }
  if (to_lower(object) != "matrix" || to_lower(format) != "coordinate") {
    throw io_error("only 'matrix coordinate' Matrix Market files are supported");
  }
  const std::string f = to_lower(field);
  if (f != "real" && f != "integer" && f != "pattern") {
    throw io_error("unsupported Matrix Market field: " + field);
  }
  const std::string sym = to_lower(symmetry);
  if (sym != "general" && sym != "symmetric") {
    throw io_error("unsupported Matrix Market symmetry: " + symmetry);
  }
  return MmBanner{f == "pattern", sym == "symmetric"};
}

void check_mm_sizes(std::int64_t rows, std::int64_t cols, std::int64_t entries) {
  if (rows < 0 || cols < 0) {
    throw io_error("negative Matrix Market dimensions: " + std::to_string(rows) + " x " +
                   std::to_string(cols));
  }
  if (entries < 0) throw io_error("negative Matrix Market entry count: " + std::to_string(entries));
  // checked_index reports out-of-range dimensions as invalid_matrix;
  // re-type as io_error — at this point it is a file problem.
  try {
    checked_index(rows);
    checked_index(cols);
  } catch (const invalid_matrix& e) {
    throw io_error(std::string("Matrix Market dimensions out of range: ") + e.what());
  }
  // rows, cols <= 2^31 after the checks above, so the product fits i64.
  if (entries > rows * cols) {
    throw io_error("Matrix Market entry count " + std::to_string(entries) + " exceeds rows*cols " +
                   std::to_string(rows * cols));
  }
}

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw io_error("empty Matrix Market stream");
  const MmBanner h = parse_mm_banner(line);

  // Skip comments, read the size line.
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
  check_mm_sizes(rows, cols, nnz);

  CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // The size line is untrusted: reserve at most kMaxReserve entries up
  // front and let the vector grow as entries arrive, so a file that
  // declares more entries than it holds fails as truncated, not in the
  // allocator.
  constexpr std::int64_t kMaxReserve = std::int64_t{1} << 20;
  coo.reserve(std::min(h.symmetric ? 2 * nnz : nnz, kMaxReserve));
  for (std::int64_t k = 0; k < nnz; ++k) {
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    if (!(in >> r >> c)) {
      throw io_error("malformed or truncated entry list at entry " + std::to_string(k + 1) +
                     " of " + std::to_string(nnz));
    }
    if (!h.pattern && !(in >> v)) {
      throw io_error("malformed or truncated value at entry " + std::to_string(k + 1) + " of " +
                     std::to_string(nnz));
    }
    if (r < 1 || r > rows || c < 1 || c > cols) {
      throw io_error("entry " + std::to_string(k + 1) + ": index (" + std::to_string(r) + ", " +
                     std::to_string(c) + ") out of range for " + std::to_string(rows) + " x " +
                     std::to_string(cols));
    }
    const auto ri = static_cast<index_t>(r - 1);
    const auto ci = static_cast<index_t>(c - 1);
    coo.add(ri, ci, static_cast<value_t>(v));
    if (h.symmetric && ri != ci) coo.add(ci, ri, static_cast<value_t>(v));
  }
  // from_coo funnels through the CsrMatrix constructor, which validates
  // the full CSR invariant — the last line of defence for any reader.
  return CsrMatrix::from_coo(coo);
}

CsrMatrix read_matrix_market(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw io_error("cannot open " + path);
  return read_matrix_market(f);
}

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
