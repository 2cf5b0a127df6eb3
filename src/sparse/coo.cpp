#include "sparse/coo.hpp"

#include <algorithm>
#include <string>

namespace rrspmm::sparse {

void CooMatrix::add(index_t row, index_t col, value_t value) {
  if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
    throw invalid_matrix("COO entry out of bounds: (" + std::to_string(row) + "," +
                         std::to_string(col) + ") in " + std::to_string(rows_) + "x" +
                         std::to_string(cols_));
  }
  entries_.push_back(CooEntry{row, col, value});
}

void CooMatrix::sort_and_combine() {
  // Stable, so duplicate coordinates keep their arrival order and their
  // values sum left-to-right in that order — the order Matrix Market
  // ingest (io::read_matrix_market_streamed) promises for a file's
  // duplicate entries.
  std::stable_sort(entries_.begin(), entries_.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].row == entries_[i].row &&
        entries_[out - 1].col == entries_[i].col) {
      entries_[out - 1].value += entries_[i].value;
    } else {
      entries_[out] = entries_[i];
      ++out;
    }
  }
  entries_.resize(out);
}

}  // namespace rrspmm::sparse
