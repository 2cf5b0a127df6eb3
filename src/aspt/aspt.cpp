#include "aspt/aspt.hpp"

#include <algorithm>
#include <unordered_map>

namespace rrspmm::aspt {

AsptMatrix build_aspt(const CsrMatrix& m, const AsptConfig& cfg) {
  if (cfg.panel_rows <= 0) throw sparse::invalid_matrix("AsptConfig: panel_rows must be positive");
  if (cfg.dense_col_threshold < 2) {
    // A "dense" column with one nonzero saves nothing; the paper's
    // definition starts at two.
    throw sparse::invalid_matrix("AsptConfig: dense_col_threshold must be >= 2");
  }

  AsptMatrix out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.stats_.nnz_total = m.nnz();

  std::vector<offset_t> sp_rowptr(static_cast<std::size_t>(m.rows()) + 1, 0);
  std::vector<index_t> sp_colidx;
  std::vector<value_t> sp_values;
  std::vector<offset_t> sp_src;

  std::unordered_map<index_t, index_t> col_count;   // occupancy within the panel
  std::unordered_map<index_t, index_t> slot_of_col; // dense column -> slot

  for (index_t rb = 0; rb < m.rows(); rb += cfg.panel_rows) {
    Panel panel;
    panel.row_begin = rb;
    panel.row_end = std::min(m.rows(), static_cast<index_t>(rb + cfg.panel_rows));

    // Pass 1: per-column occupancy inside the panel.
    col_count.clear();
    for (index_t i = panel.row_begin; i < panel.row_end; ++i) {
      for (index_t c : m.row_cols(i)) col_count[c]++;
    }

    // Rank columns by occupancy (descending), ties on lower column id —
    // the per-panel column sort of Fig 3b.
    std::vector<std::pair<index_t, index_t>> ranked;  // (count, col)
    ranked.reserve(col_count.size());
    for (const auto& [c, cnt] : col_count) {
      if (cnt >= cfg.dense_col_threshold) ranked.emplace_back(cnt, c);
    }
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (static_cast<index_t>(ranked.size()) > cfg.max_dense_cols) {
      ranked.resize(static_cast<std::size_t>(cfg.max_dense_cols));
    }

    slot_of_col.clear();
    panel.dense_cols.reserve(ranked.size());
    for (const auto& [cnt, c] : ranked) {
      (void)cnt;
      slot_of_col.emplace(c, static_cast<index_t>(panel.dense_cols.size()));
      panel.dense_cols.push_back(c);
    }

    // Pass 2: split each row's nonzeros into the dense tile and the
    // sparse remainder.
    panel.dense_rowptr.assign(static_cast<std::size_t>(panel.rows()) + 1, 0);
    for (index_t i = panel.row_begin; i < panel.row_end; ++i) {
      const auto cols = m.row_cols(i);
      const auto vals = m.row_vals(i);
      const offset_t base = m.rowptr()[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < cols.size(); ++j) {
        const auto it = slot_of_col.find(cols[j]);
        if (it != slot_of_col.end()) {
          panel.dense_slot.push_back(it->second);
          panel.dense_val.push_back(vals[j]);
          panel.dense_src_idx.push_back(base + static_cast<offset_t>(j));
        } else {
          sp_colidx.push_back(cols[j]);
          sp_values.push_back(vals[j]);
          sp_src.push_back(base + static_cast<offset_t>(j));
        }
      }
      panel.dense_rowptr[static_cast<std::size_t>(i - panel.row_begin) + 1] =
          static_cast<offset_t>(panel.dense_slot.size());
      sp_rowptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(sp_colidx.size());
    }

    out.stats_.nnz_dense += panel.nnz();
    out.stats_.total_dense_cols += static_cast<offset_t>(panel.dense_cols.size());
    out.panels_.push_back(std::move(panel));
  }

  out.stats_.num_panels = static_cast<index_t>(out.panels_.size());
  out.sparse_part_ =
      CsrMatrix(m.rows(), m.cols(), std::move(sp_rowptr), std::move(sp_colidx), std::move(sp_values));
  out.sparse_src_idx_ = std::move(sp_src);
  return out;
}

AsptMatrix AsptMatrix::from_parts(index_t rows, index_t cols, std::vector<Panel> panels,
                                  CsrMatrix sparse_part, std::vector<offset_t> sparse_src_idx) {
  if (sparse_part.rows() != rows || sparse_part.cols() != cols) {
    throw sparse::invalid_matrix("from_parts: sparse part dimensions mismatch");
  }
  if (sparse_src_idx.size() != static_cast<std::size_t>(sparse_part.nnz())) {
    throw sparse::invalid_matrix("from_parts: sparse src-index size mismatch");
  }
  sparse_part.validate();

  AsptMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.stats_ = AsptStats{};

  index_t expect_begin = 0;
  for (const Panel& p : panels) {
    if (p.row_begin != expect_begin || p.row_end <= p.row_begin || p.row_end > rows) {
      throw sparse::invalid_matrix("from_parts: panels must partition the rows");
    }
    expect_begin = p.row_end;
    if (p.dense_rowptr.size() != static_cast<std::size_t>(p.rows()) + 1 ||
        p.dense_rowptr.front() != 0 || p.dense_rowptr.back() != p.nnz()) {
      throw sparse::invalid_matrix("from_parts: bad panel rowptr");
    }
    for (std::size_t r = 1; r < p.dense_rowptr.size(); ++r) {
      if (p.dense_rowptr[r] < p.dense_rowptr[r - 1]) {
        throw sparse::invalid_matrix("from_parts: panel rowptr not monotone");
      }
    }
    if (p.dense_val.size() != p.dense_slot.size() ||
        p.dense_src_idx.size() != p.dense_slot.size()) {
      throw sparse::invalid_matrix("from_parts: panel array size mismatch");
    }
    for (index_t c : p.dense_cols) {
      if (c < 0 || c >= cols) throw sparse::invalid_matrix("from_parts: dense col out of range");
    }
    for (index_t slot : p.dense_slot) {
      if (slot < 0 || static_cast<std::size_t>(slot) >= p.dense_cols.size()) {
        throw sparse::invalid_matrix("from_parts: dense slot out of range");
      }
    }
    out.stats_.nnz_dense += p.nnz();
    out.stats_.total_dense_cols += static_cast<offset_t>(p.dense_cols.size());
  }
  if (!panels.empty() && expect_begin != rows) {
    throw sparse::invalid_matrix("from_parts: panels do not cover all rows");
  }

  out.stats_.nnz_total = out.stats_.nnz_dense + sparse_part.nnz();
  out.stats_.num_panels = static_cast<index_t>(panels.size());

  // Source-index maps must cover [0, nnz_total) exactly once, each row's
  // indices inside that row's range of the source CSR (the row starts
  // follow from the per-row dense and sparse counts). Row locality is what
  // lets a reordered plan move a row's SDDMM outputs by one offset.
  const std::vector<offset_t>& sp_ptr = sparse_part.rowptr();
  std::vector<offset_t> row_base(sp_ptr.size(), 0);
  for (std::size_t i = 1; i < row_base.size(); ++i) row_base[i] = sp_ptr[i] - sp_ptr[i - 1];
  for (const Panel& p : panels) {
    for (std::size_t r = 0; r + 1 < p.dense_rowptr.size(); ++r) {
      row_base[static_cast<std::size_t>(p.row_begin) + r + 1] +=
          p.dense_rowptr[r + 1] - p.dense_rowptr[r];
    }
  }
  for (std::size_t i = 1; i < row_base.size(); ++i) row_base[i] += row_base[i - 1];
  std::vector<bool> seen(static_cast<std::size_t>(out.stats_.nnz_total), false);
  auto mark = [&](offset_t idx, index_t row) {
    const auto r = static_cast<std::size_t>(row);
    if (idx < row_base[r] || idx >= row_base[r + 1] || seen[static_cast<std::size_t>(idx)]) {
      throw sparse::invalid_matrix("from_parts: source-index map is not a row-wise bijection");
    }
    seen[static_cast<std::size_t>(idx)] = true;
  };
  for (const Panel& p : panels) {
    for (index_t i = p.row_begin; i < p.row_end; ++i) {
      const auto r = static_cast<std::size_t>(i - p.row_begin);
      for (offset_t j = p.dense_rowptr[r]; j < p.dense_rowptr[r + 1]; ++j) {
        mark(p.dense_src_idx[static_cast<std::size_t>(j)], i);
      }
    }
  }
  for (index_t i = 0; i < rows; ++i) {
    for (offset_t j = sp_ptr[static_cast<std::size_t>(i)];
         j < sp_ptr[static_cast<std::size_t>(i) + 1]; ++j) {
      mark(sparse_src_idx[static_cast<std::size_t>(j)], i);
    }
  }

  out.panels_ = std::move(panels);
  out.sparse_part_ = std::move(sparse_part);
  out.sparse_src_idx_ = std::move(sparse_src_idx);
  return out;
}

double dense_ratio(const CsrMatrix& m, const AsptConfig& cfg) {
  return build_aspt(m, cfg).stats().dense_ratio();
}

index_t max_dense_cols_for(std::size_t shared_bytes_per_block, index_t min_strip_cols) {
  if (min_strip_cols <= 0) throw sparse::invalid_matrix("min_strip_cols must be positive");
  const std::size_t cols = shared_bytes_per_block / (static_cast<std::size_t>(min_strip_cols) * 4);
  return cols < 1 ? index_t{1} : checked_index(static_cast<std::int64_t>(cols));
}

}  // namespace rrspmm::aspt
