#include "io/mm_stream.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <locale>
#include <sstream>
#include <type_traits>

namespace rrspmm::io {

using sparse::CooEntry;
using sparse::io_error;

namespace {

/// When fewer bytes than this remain in the window and the file has
/// more, the window slides before a number is parsed, so a token seldom
/// reaches the window's edge; one that does is parsed again after a
/// refill.
constexpr std::size_t kTokenSlack = 64;

bool is_space(char ch) { return std::isspace(static_cast<unsigned char>(ch)) != 0; }

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
  } catch (const sparse::invalid_matrix& e) {
    throw io_error(std::string("Matrix Market dimensions out of range: ") + e.what());
  }
  // rows, cols <= 2^31 after the checks above, so the product fits i64.
  if (entries > rows * cols) {
    throw io_error("Matrix Market entry count " + std::to_string(entries) + " exceeds rows*cols " +
                   std::to_string(rows * cols));
  }
}

MmChunkReader::MmChunkReader(const std::string& path, std::size_t chunk_bytes)
    : bytes_(path), chunk_bytes_(std::max<std::size_t>(chunk_bytes, 2 * kTokenSlack)) {
  window_.resize(std::clamp<std::size_t>(chunk_bytes_, 4096, 256u << 10));

  // Header: banner line, comment lines, size line — line-oriented.
  std::string line;
  const auto read_line = [&](std::string& out) {
    out.clear();
    for (;;) {
      while (wpos_ < wlen_) {
        const char ch = window_[wpos_++];
        if (ch == '\n') return true;
        out.push_back(ch);
      }
      if (fpos_ >= bytes_.size()) return !out.empty();
      refill();
    }
  };
  const auto strip_cr = [](std::string& s) {
    if (!s.empty() && s.back() == '\r') s.pop_back();
  };

  if (!read_line(line)) throw io_error("empty Matrix Market stream");
  strip_cr(line);
  const MmBanner banner = parse_mm_banner(line);

  bool have_size = false;
  while (read_line(line)) {
    strip_cr(line);
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

  hdr_.rows = static_cast<index_t>(rows);
  hdr_.cols = static_cast<index_t>(cols);
  hdr_.declared_entries = nnz;
  hdr_.pattern = banner.pattern;
  hdr_.symmetric = banner.symmetric;
}

bool MmChunkReader::refill() {
  const std::size_t rem = wlen_ - wpos_;
  if (rem > 0) std::memmove(window_.data(), window_.data() + wpos_, rem);
  wpos_ = 0;
  wlen_ = rem;
  const std::size_t want =
      std::min<std::uint64_t>(window_.size() - wlen_, bytes_.size() - fpos_);
  if (want == 0) return false;
  bytes_.read_at(fpos_, window_.data() + wlen_, want);
  wlen_ += want;
  fpos_ += want;
  return true;
}

void MmChunkReader::skip_ws() {
  for (;;) {
    while (wpos_ < wlen_ && is_space(window_[wpos_])) ++wpos_;
    if (wpos_ < wlen_ || fpos_ >= bytes_.size()) return;
    refill();
  }
}

template <typename T>
bool MmChunkReader::parse_number(T& v) {
  skip_ws();
  if (wlen_ - wpos_ < kTokenSlack && fpos_ < bytes_.size()) refill();
  for (;;) {
    const char* first = window_.data() + wpos_;
    const char* last = window_.data() + wlen_;
    // Accept what istream extraction accepts and nothing it rejects: one
    // leading '+' (from_chars takes none), a number that ends at
    // whitespace or at the end of the file, and no "nan" or "inf".
    if (last - first > 1 && first[0] == '+' && first[1] != '-' && first[1] != '+') ++first;
    auto [p, ec] = std::from_chars(first, last, v);
    if constexpr (std::is_floating_point_v<T>) {
      // A value below double's range reads as istream reads it
      // (strtod's subnormal or zero, in the classic locale); only
      // overflow is an error.
      if (ec == std::errc::result_out_of_range) {
        std::istringstream is(std::string(first, p));
        is.imbue(std::locale::classic());
        ec = (is >> v) ? std::errc{} : std::errc::result_out_of_range;
      }
      if (ec == std::errc{} && !std::isfinite(v)) ec = std::errc::invalid_argument;
    }
    const bool ok = ec == std::errc{} && (p == last || is_space(*p));
    // A token that runs to the window's edge may go on in the file:
    // slide the window and parse it whole.
    if (fpos_ < bytes_.size() && (p == last || (!ok && std::none_of(first, last, is_space)))) {
      if (wpos_ == 0 && wlen_ == window_.size()) {
        throw io_error("Matrix Market number longer than the " +
                       std::to_string(window_.size()) + "-byte read window");
      }
      refill();
      continue;
    }
    if (!ok) return false;
    wpos_ = static_cast<std::size_t>(p - window_.data());
    return true;
  }
}

bool MmChunkReader::next_chunk(std::vector<CooEntry>& out) {
  out.clear();
  if (parsed_ >= hdr_.declared_entries) return false;

  // Built only on failure: one string per entry would cost more than
  // parsing it.
  const auto at = [&] {
    return "at entry " + std::to_string(parsed_ + 1) + " of " +
           std::to_string(hdr_.declared_entries);
  };
  const std::uint64_t start = fpos_ - (wlen_ - wpos_);
  while (parsed_ < hdr_.declared_entries) {
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    if (!parse_number(r) || !parse_number(c)) {
      throw io_error("malformed or truncated entry list " + at());
    }
    if (!hdr_.pattern && !parse_number(v)) throw io_error("malformed or truncated value " + at());
    if (r < 1 || r > hdr_.rows || c < 1 || c > hdr_.cols) {
      throw io_error("entry " + std::to_string(parsed_ + 1) + ": index (" + std::to_string(r) +
                     ", " + std::to_string(c) + ") out of range for " + std::to_string(hdr_.rows) +
                     " x " + std::to_string(hdr_.cols));
    }
    const auto ri = static_cast<index_t>(r - 1);
    const auto ci = static_cast<index_t>(c - 1);
    out.push_back(CooEntry{ri, ci, static_cast<value_t>(v)});
    ++emitted_;
    if (hdr_.symmetric && ri != ci) {
      out.push_back(CooEntry{ci, ri, static_cast<value_t>(v)});
      ++emitted_;
    }
    ++parsed_;
    const std::uint64_t consumed = fpos_ - (wlen_ - wpos_) - start;
    if (consumed >= chunk_bytes_) break;
  }
  return !out.empty();
}

sparse::CsrMatrix read_matrix_market_streamed(const std::string& path,
                                              const StreamingBuildConfig& cfg,
                                              std::size_t chunk_bytes) {
  MmChunkReader reader(path, chunk_bytes);
  StreamingCsrBuilder builder(reader.header().rows, reader.header().cols, cfg);
  std::vector<CooEntry> chunk;
  while (reader.next_chunk(chunk)) builder.add_entries(chunk);
  return builder.finish();
}

}  // namespace rrspmm::io
