// Row accumulators for Gustavson SpGEMM.
//
// Every accumulator consumes the contributions of one output row — the
// products a_ij * b_jc emitted while walking A's row i in ascending-j
// order and each B row j in ascending-c order — and emits the row's
// distinct columns sorted ascending with their summed values.
//
// The determinism contract (what makes hash/sort/dense bitwise equality
// hold): for a fixed output column c, every accumulator starts from the
// column's first contribution and adds the rest in exactly their arrival
// order. The hash accumulator adds each product into the column's slot as
// it arrives; the sort accumulator records (column, product) pairs and
// stable-sorts them by column, which preserves arrival order within a
// column, then reduces each run left to right; the dense accumulator's
// first touch of a column assigns the product into a value array indexed
// by column and later touches add to it, and the row is emitted by
// scanning the touched words of a column bitmap in ascending order. Same
// addends, same order, same float rounding — identical bits. The first
// contribution is always assigned, never added to 0, so a row whose only
// product in a column is -0.0 emits -0.0 on every path. (The spgemm
// library is compiled with -ffp-contract=off so the compiler cannot fuse a
// product into one accumulator's addition but not the other's.)
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

namespace rrspmm::spgemm {

/// Open-addressing hash map keyed by output column. O(1) amortised per
/// contribution regardless of the row's upper bound; flush sorts only
/// the distinct columns. The right choice for long, collision-heavy
/// rows.
class HashAccumulator {
 public:
  /// Prepares for a row with at most `upper_bound` contributions. The
  /// table only grows; a row probes the power-of-two prefix its bound
  /// needs. Every slot outside a row is empty (flush clears the occupied
  /// ones), so any prefix is clean and rows of mixed length never pay for
  /// the largest table.
  void reset(offset_t upper_bound) {
    std::size_t cap = 16;
    while (cap < static_cast<std::size_t>(upper_bound) * 2) cap <<= 1;
    for (const std::uint32_t s : used_) keys_[s] = -1;
    used_.clear();
    if (keys_.size() < cap) {
      keys_.resize(cap, -1);
      vals_.resize(cap);
    }
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  void add(index_t col, value_t v) {
    std::uint32_t slot = (static_cast<std::uint32_t>(col) * 2654435769u) & mask_;
    for (;;) {
      if (keys_[slot] == col) {
        vals_[slot] += v;
        return;
      }
      if (keys_[slot] < 0) {
        keys_[slot] = col;
        vals_[slot] = v;
        used_.push_back(slot);
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Writes the distinct columns (ascending) and their sums; returns the
  /// count. The accumulator is left ready for the next reset().
  offset_t flush(index_t* cols_out, value_t* vals_out) {
    std::sort(used_.begin(), used_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return keys_[a] < keys_[b]; });
    for (std::size_t i = 0; i < used_.size(); ++i) {
      cols_out[i] = keys_[used_[i]];
      vals_out[i] = vals_[used_[i]];
    }
    const offset_t n = static_cast<offset_t>(used_.size());
    for (const std::uint32_t s : used_) keys_[s] = -1;
    used_.clear();
    return n;
  }

 private:
  std::vector<index_t> keys_;         ///< -1 = empty slot
  std::vector<value_t> vals_;
  std::vector<std::uint32_t> used_;   ///< occupied slots, insertion order
  std::uint32_t mask_ = 0;
};

/// Dense list of (column, product) pairs reduced after a stable sort.
/// O(ub log ub) per row but with tiny constants and no hashing; the
/// right choice for short rows, and the accumulator the degraded
/// sequential path uses.
class SortAccumulator {
 public:
  void reset(offset_t upper_bound) {
    entries_.clear();
    entries_.reserve(static_cast<std::size_t>(upper_bound));
  }

  void add(index_t col, value_t v) { entries_.emplace_back(col, v); }

  offset_t flush(index_t* cols_out, value_t* vals_out) {
    std::stable_sort(
        entries_.begin(), entries_.end(),
        [](const std::pair<index_t, value_t>& a, const std::pair<index_t, value_t>& b) {
          return a.first < b.first;
        });
    offset_t n = 0;
    std::size_t i = 0;
    while (i < entries_.size()) {
      const index_t c = entries_[i].first;
      value_t acc = entries_[i].second;  // first contribution initialises,
      ++i;                               // the rest add in arrival order
      while (i < entries_.size() && entries_[i].first == c) {
        acc += entries_[i].second;
        ++i;
      }
      cols_out[n] = c;
      vals_out[n] = acc;
      ++n;
    }
    entries_.clear();
    return n;
  }

 private:
  std::vector<std::pair<index_t, value_t>> entries_;
};

/// Value array plus column bitmap, both indexed by output column: O(1)
/// per contribution with no hashing or sorting, and emission is a scan of
/// the touched bitmap words. Sized by B's column count, so it is only
/// used when B is narrow enough for the scratch to stay cache-resident
/// (spgemm::kDenseMaxCols). Also the symbolic counter: mark() + count()
/// count a row's distinct columns without gathering them.
class DenseAccumulator {
 public:
  /// Sizes the scratch for `cols` output columns. Capacity only grows;
  /// the bitmap prefix is cleared, the values need no clearing because
  /// a column's first touch assigns.
  void prepare(index_t cols) {
    const auto n = static_cast<std::size_t>(cols);
    const std::size_t words = (n + 63) / 64;
    if (bits_.size() < words) bits_.resize(words);
    if (vals_.size() < n) vals_.resize(n);
    std::fill_n(bits_.begin(), words, std::uint64_t{0});
    clear_range();
  }

  /// Records that the row touches `col`; true on the row's first touch.
  bool mark(index_t col) {
    const std::size_t w = static_cast<std::size_t>(col) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (col & 63);
    if (bits_[w] & bit) return false;
    bits_[w] |= bit;
    lo_ = std::min(lo_, w);
    hi_ = std::max(hi_, w);
    return true;
  }

  void add(index_t col, value_t v) {
    if (mark(col)) {
      vals_[static_cast<std::size_t>(col)] = v;
    } else {
      vals_[static_cast<std::size_t>(col)] += v;
    }
  }

  /// Returns the row's distinct-column count and clears its bits.
  offset_t count() {
    offset_t n = 0;
    for (std::size_t w = lo_; w <= hi_; ++w) {
      n += std::popcount(bits_[w]);
      bits_[w] = 0;
    }
    clear_range();
    return n;
  }

  /// Writes the touched columns (ascending) and their sums; returns the
  /// count. Clears each bitmap word as it is scanned, leaving the
  /// accumulator ready for the next row.
  offset_t flush(index_t* cols_out, value_t* vals_out) {
    offset_t n = 0;
    for (std::size_t w = lo_; w <= hi_; ++w) {
      std::uint64_t word = bits_[w];
      bits_[w] = 0;
      while (word != 0) {
        const std::size_t c = w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        cols_out[n] = static_cast<index_t>(c);
        vals_out[n] = vals_[c];
        ++n;
      }
    }
    clear_range();
    return n;
  }

 private:
  void clear_range() {
    lo_ = std::numeric_limits<std::size_t>::max();
    hi_ = 0;
  }

  std::vector<std::uint64_t> bits_;  ///< one bit per output column
  std::vector<value_t> vals_;        ///< running sum of each touched column
  std::size_t lo_ = std::numeric_limits<std::size_t>::max();  ///< touched word range
  std::size_t hi_ = 0;                                        ///< of the current row
};

}  // namespace rrspmm::spgemm
