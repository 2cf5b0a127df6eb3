#include "core/plan_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "sparse/permute.hpp"

namespace rrspmm::core {

namespace {

constexpr char kMagic[10] = {'R', 'R', 'S', 'P', 'M', 'M', 'P', 'L', 'A', 'N'};
// Version 2 appends the per-phase preprocessing timings and the
// degradation flag to the stats block; version 1 files load with zeroed
// timings. Versions 3 and 4 appended a stored kernel-specialization
// record after the tiled matrix, and version 4 also a matrix fingerprint
// and router records; the reader validates and skips all of them.
// Version 5 is the version 2 layout: the record is a function of the
// tiling, so every loaded plan recomputes it.
constexpr std::uint32_t kVersion = 5;

// POD write/read helpers. The format is defined as little-endian; this
// library targets little-endian hosts (x86-64, AArch64 Linux), which the
// writer asserts implicitly by writing native representations.
template <typename T>
void put(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw io_error("plan file truncated");
  return v;
}

template <typename T>
void put_vec(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put<std::uint64_t>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

// Arrays grow in chunks of at most 1 MiB as their bytes arrive, so a
// header that declares more elements than the stream holds fails on
// truncation after allocating about what was delivered, never the size
// the header claims.
template <typename T>
std::vector<T> get_vec(std::istream& in, std::uint64_t max_elems = (1ULL << 33)) {
  const auto n = get<std::uint64_t>(in);
  if (n > max_elems) throw io_error("plan file declares an implausible array size");
  constexpr std::size_t kChunk = (std::size_t{1} << 20) / sizeof(T);
  std::vector<T> v;
  while (v.size() < n) {
    const std::size_t have = v.size();
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - have));
    v.resize(have + take);
    in.read(reinterpret_cast<char*>(v.data() + have),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!in) throw io_error("plan file truncated inside an array");
  }
  return v;
}

std::string get_str(std::istream& in, std::uint64_t max_len = (1ULL << 16)) {
  const auto n = get<std::uint64_t>(in);
  if (n > max_len) throw io_error("plan file declares an implausible string size");
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) {
    in.read(s.data(), static_cast<std::streamsize>(n));
    if (!in) throw io_error("plan file truncated inside a string");
  }
  return s;
}

// Size of one v4 router record on disk (workload u8, k_bucket i32, six
// u8 arm fields, count u64, total/min/max f64), skipped on load.
constexpr std::streamsize kRouterRecordBytes = 43;

// Reads past the stored specialization record of a v3/v4 file (and v4's
// fingerprint and router records), rejecting a corrupt one. Layout: an
// enabled flag u8, short_max and medium_max thresholds, four row-class
// counts, dense_panels and dense_tile_rows u64, four variant bytes (at
// most 2, the largest variant the writers knew), and in v4
// dense_full_rows u64, the fingerprint string and the record list.
void skip_stored_record(std::istream& in, std::uint32_t version) {
  get<std::uint8_t>(in);
  const auto short_max = get<index_t>(in);
  const auto medium_max = get<index_t>(in);
  for (int i = 0; i < 4 + 2; ++i) get<std::uint64_t>(in);
  for (int c = 0; c < 4; ++c) {
    if (get<std::uint8_t>(in) > 2) throw io_error("plan specialization record is corrupt");
  }
  if (short_max <= 0 || medium_max < short_max) {
    throw io_error("plan specialization record is corrupt");
  }
  if (version < 4) return;
  get<std::uint64_t>(in);
  get_str(in);  // the fingerprint
  const auto nroutes = get<std::uint64_t>(in);
  if (nroutes > (1ULL << 20)) throw io_error("implausible route-record count");
  for (std::uint64_t i = 0; i < nroutes; ++i) {
    if (in.ignore(kRouterRecordBytes).gcount() != kRouterRecordBytes) {
      throw io_error("plan file truncated inside a route record");
    }
  }
}

void put_stats(std::ostream& out, const PipelineStats& s) {
  put(out, s.dense_ratio_before);
  put(out, s.dense_ratio_after);
  put(out, s.avg_sim_before);
  put(out, s.avg_sim_after);
  put<std::uint8_t>(out, s.round1_applied ? 1 : 0);
  put<std::uint8_t>(out, s.round2_applied ? 1 : 0);
  put<std::uint64_t>(out, s.round1_candidates);
  put<std::uint64_t>(out, s.round2_candidates);
  put(out, s.round1_clusters);
  put(out, s.round2_clusters);
  put(out, s.preprocess_seconds);
  put(out, s.sig_ms);
  put(out, s.band_ms);
  put(out, s.score_ms);
  put(out, s.merge_ms);
  put<std::uint8_t>(out, s.preproc_degraded ? 1 : 0);
}

PipelineStats get_stats(std::istream& in, std::uint32_t version) {
  PipelineStats s;
  s.dense_ratio_before = get<double>(in);
  s.dense_ratio_after = get<double>(in);
  s.avg_sim_before = get<double>(in);
  s.avg_sim_after = get<double>(in);
  s.round1_applied = get<std::uint8_t>(in) != 0;
  s.round2_applied = get<std::uint8_t>(in) != 0;
  s.round1_candidates = static_cast<std::size_t>(get<std::uint64_t>(in));
  s.round2_candidates = static_cast<std::size_t>(get<std::uint64_t>(in));
  s.round1_clusters = get<index_t>(in);
  s.round2_clusters = get<index_t>(in);
  s.preprocess_seconds = get<double>(in);
  if (version >= 2) {
    s.sig_ms = get<double>(in);
    s.band_ms = get<double>(in);
    s.score_ms = get<double>(in);
    s.merge_ms = get<double>(in);
    s.preproc_degraded = get<std::uint8_t>(in) != 0;
  }
  return s;
}

}  // namespace

void save_plan(const ExecutionPlan& plan, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  put(out, kVersion);

  put_vec(out, plan.row_perm);
  put_vec(out, plan.sparse_order);
  put_stats(out, plan.stats);

  const aspt::AsptMatrix& t = plan.tiled;
  put(out, t.rows());
  put(out, t.cols());
  put<std::uint64_t>(out, t.panels().size());
  for (const aspt::Panel& p : t.panels()) {
    put(out, p.row_begin);
    put(out, p.row_end);
    put_vec(out, p.dense_cols);
    put_vec(out, p.dense_rowptr);
    put_vec(out, p.dense_slot);
    put_vec(out, p.dense_val);
    put_vec(out, p.dense_src_idx);
  }
  const sparse::CsrMatrix& sp = t.sparse_part();
  put_vec(out, sp.rowptr());
  put_vec(out, sp.colidx());
  put_vec(out, sp.values());
  put_vec(out, t.sparse_src_idx());

  if (!out) throw io_error("failed writing plan");
}

void save_plan(const ExecutionPlan& plan, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw io_error("cannot open " + path + " for writing");
  save_plan(plan, f);
}

ExecutionPlan load_plan(std::istream& in) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw io_error("not an rrspmm plan file");
  }
  const auto version = get<std::uint32_t>(in);
  if (version < 1 || version > kVersion) {
    throw io_error("unsupported plan version " + std::to_string(version));
  }

  ExecutionPlan plan;
  plan.row_perm = get_vec<index_t>(in);
  plan.sparse_order = get_vec<index_t>(in);
  plan.stats = get_stats(in, version);

  const auto rows = get<index_t>(in);
  const auto cols = get<index_t>(in);
  const auto npanels = get<std::uint64_t>(in);
  if (npanels > (1ULL << 32)) throw io_error("implausible panel count");
  // Panels are appended as they are read, for the same reason get_vec
  // grows in chunks.
  std::vector<aspt::Panel> panels;
  for (std::uint64_t i = 0; i < npanels; ++i) {
    aspt::Panel& p = panels.emplace_back();
    p.row_begin = get<index_t>(in);
    p.row_end = get<index_t>(in);
    p.dense_cols = get_vec<index_t>(in);
    p.dense_rowptr = get_vec<offset_t>(in);
    p.dense_slot = get_vec<index_t>(in);
    p.dense_val = get_vec<value_t>(in);
    p.dense_src_idx = get_vec<offset_t>(in);
  }
  auto rowptr = get_vec<offset_t>(in);
  auto colidx = get_vec<index_t>(in);
  auto values = get_vec<value_t>(in);
  auto src_idx = get_vec<offset_t>(in);

  sparse::CsrMatrix sp(rows, cols, std::move(rowptr), std::move(colidx), std::move(values));
  plan.tiled = aspt::AsptMatrix::from_parts(rows, cols, std::move(panels), std::move(sp),
                                            std::move(src_idx));

  if (version == 3 || version == 4) skip_stored_record(in, version);
  plan.spec = kernels::simd::specialize_plan(plan.tiled);

  if (!sparse::is_permutation(plan.row_perm, rows) ||
      !sparse::is_permutation(plan.sparse_order, rows)) {
    throw invalid_matrix("plan permutations are corrupt");
  }
  return plan;
}

ExecutionPlan load_plan(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw io_error("cannot open " + path);
  return load_plan(f);
}

}  // namespace rrspmm::core
