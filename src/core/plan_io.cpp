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
// timings (the same back-compat idiom as kShardVersion). Version 3
// appends the kernel SpecializationPlan record after the tiled matrix;
// loading an older file recomputes the record from the tiling, so every
// loaded plan carries one. Version 4 appends the record's
// dense_full_rows counter (recomputed for v3 files), the matrix
// fingerprint, and a count of router records. The router no longer
// persists anything: the writer emits a count of 0, and the reader
// skips the records of files written by older binaries.
constexpr std::uint32_t kVersion = 4;

constexpr char kShardMagic[10] = {'R', 'R', 'S', 'P', 'M', 'M', 'S', 'H', 'R', 'D'};
// Version 2 appends the partitioned span [span_begin, span_end); version 1
// files load with the full-extent defaults. Both versions carry a mode
// byte and a column-shard count from the retired column mode: the writer
// emits 0 for both, and the reader rejects any other value.
constexpr std::uint32_t kShardVersion = 2;

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

void put_str(std::ostream& out, const std::string& s) {
  put<std::uint64_t>(out, s.size());
  if (!s.empty()) out.write(s.data(), static_cast<std::streamsize>(s.size()));
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

  // Version 3: the specialization record. A plan assembled by hand may
  // not carry one; serialize the recomputed record so files are uniform.
  const kernels::simd::SpecializationPlan spec =
      plan.spec ? *plan.spec : kernels::simd::specialize_plan(plan.tiled);
  put<std::uint8_t>(out, spec.enabled ? 1 : 0);
  put(out, spec.short_max);
  put(out, spec.medium_max);
  for (std::size_t c = 0; c < kernels::simd::kRowClassCount; ++c) {
    put<std::uint64_t>(out, spec.rows_by_class[c]);
  }
  put<std::uint64_t>(out, spec.dense_panels);
  put<std::uint64_t>(out, spec.dense_tile_rows);
  for (std::size_t c = 0; c < kernels::simd::kRowClassCount; ++c) {
    put<std::uint8_t>(out, spec.variant[c]);
  }

  // Version 4: the micro-GEMM density counter, the matrix fingerprint,
  // and an empty router-record list.
  put<std::uint64_t>(out, spec.dense_full_rows);
  put_str(out, plan.fingerprint);
  put<std::uint64_t>(out, 0);
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

  if (version >= 3) {
    kernels::simd::SpecializationPlan spec;
    spec.enabled = get<std::uint8_t>(in) != 0;
    spec.short_max = get<index_t>(in);
    spec.medium_max = get<index_t>(in);
    for (std::size_t c = 0; c < kernels::simd::kRowClassCount; ++c) {
      spec.rows_by_class[c] = get<std::uint64_t>(in);
    }
    spec.dense_panels = get<std::uint64_t>(in);
    spec.dense_tile_rows = get<std::uint64_t>(in);
    for (std::size_t c = 0; c < kernels::simd::kRowClassCount; ++c) {
      spec.variant[c] = get<std::uint8_t>(in);
      if (spec.variant[c] > static_cast<std::uint8_t>(kernels::simd::SpecVariant::kwidth)) {
        throw io_error("plan specialization record is corrupt");
      }
    }
    if (spec.short_max <= 0 || spec.medium_max < spec.short_max) {
      throw io_error("plan specialization record is corrupt");
    }
    if (version >= 4) {
      spec.dense_full_rows = get<std::uint64_t>(in);
      plan.fingerprint = get_str(in);
      const auto nroutes = get<std::uint64_t>(in);
      if (nroutes > (1ULL << 20)) throw io_error("implausible route-record count");
      for (std::uint64_t i = 0; i < nroutes; ++i) {
        if (in.ignore(kRouterRecordBytes).gcount() != kRouterRecordBytes) {
          throw io_error("plan file truncated inside a route record");
        }
      }
    } else {
      // v3 predates the counter: recompute it from the tiling.
      spec.dense_full_rows =
          kernels::simd::specialize_plan(plan.tiled).dense_full_rows;
    }
    plan.spec = std::make_shared<kernels::simd::SpecializationPlan>(spec);
  } else {
    // Pre-v3 file: recompute so loaded plans behave like built ones.
    plan.spec = std::make_shared<kernels::simd::SpecializationPlan>(
        kernels::simd::specialize_plan(plan.tiled));
  }

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

void save_shard_plan(const ShardPlan& plan, std::ostream& out) {
  plan.validate();
  out.write(kShardMagic, sizeof(kShardMagic));
  put(out, kShardVersion);
  put<std::uint8_t>(out, 0);  // mode: row
  put<std::uint8_t>(out, static_cast<std::uint8_t>(plan.strategy));
  put<std::int32_t>(out, plan.num_devices);
  put(out, plan.rows);
  put(out, plan.cols);
  put(out, plan.span_begin);
  put(out, plan.span_end);
  put<std::uint64_t>(out, plan.row_shards.size());
  for (const RowShard& s : plan.row_shards) {
    put(out, s.row_begin);
    put(out, s.row_end);
    put(out, s.nnz);
  }
  put<std::uint64_t>(out, 0);  // column shards
  if (!out) throw io_error("failed writing shard plan");
}

void save_shard_plan(const ShardPlan& plan, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw io_error("cannot open " + path + " for writing");
  save_shard_plan(plan, f);
}

ShardPlan load_shard_plan(std::istream& in) {
  char magic[sizeof(kShardMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw io_error("not an rrspmm shard-plan file");
  }
  const auto version = get<std::uint32_t>(in);
  if (version < 1 || version > kShardVersion) {
    throw io_error("unsupported shard-plan version " + std::to_string(version));
  }

  ShardPlan plan;
  const auto mode = get<std::uint8_t>(in);
  if (mode == 1) throw io_error("column-mode shard plans are no longer supported");
  if (mode != 0) throw io_error("shard-plan file declares an unknown mode");
  const auto strategy = get<std::uint8_t>(in);
  if (strategy > static_cast<std::uint8_t>(ShardStrategy::reorder_aware)) {
    throw io_error("shard-plan file declares an unknown strategy");
  }
  plan.strategy = static_cast<ShardStrategy>(strategy);
  plan.num_devices = get<std::int32_t>(in);
  plan.rows = get<index_t>(in);
  plan.cols = get<index_t>(in);
  if (version >= 2) {
    plan.span_begin = get<index_t>(in);
    plan.span_end = get<index_t>(in);
  }

  const auto n_rows = get<std::uint64_t>(in);
  if (n_rows > (1ULL << 24)) throw io_error("implausible row-shard count");
  if (n_rows != static_cast<std::uint64_t>(plan.num_devices)) {
    throw io_error("shard-plan file's row-shard count does not match its device count");
  }
  // Appended as read: memory follows the bytes delivered, not the count.
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    RowShard& s = plan.row_shards.emplace_back();
    s.row_begin = get<index_t>(in);
    s.row_end = get<index_t>(in);
    s.nnz = get<offset_t>(in);
  }
  if (get<std::uint64_t>(in) != 0) {
    throw io_error("column-mode shard plans are no longer supported");
  }

  plan.validate();
  return plan;
}

ShardPlan load_shard_plan(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw io_error("cannot open " + path);
  return load_shard_plan(f);
}

}  // namespace rrspmm::core
