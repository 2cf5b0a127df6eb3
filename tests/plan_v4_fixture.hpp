// Hand-written plan-file fixtures for versions 3 and 4, which the current
// writer no longer produces. Both stored a kernel-specialization record
// after the tiling; version 4 added the record's dense_full_rows counter,
// a matrix fingerprint and router records after it. The reader validates
// and skips all of that and recomputes the record from the tiling.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/plan_io.hpp"

namespace rrspmm::test {

/// Little-endian byte builder for file fixtures the writers can no
/// longer (or never would) produce.
struct Bytes {
  std::string s;
  template <typename T>
  Bytes& put(T v) {
    s.append(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  Bytes& magic(const char (&m)[11]) {
    s.append(m, 10);
    return *this;
  }
};

/// The specialization record as v3/v4 writers stored it: a row-class
/// histogram of the sparse remainder (empty, 1..4, 5..32, longer rows)
/// with its thresholds, the dense-tile summary and one variant per class
/// (0 generic, 1 unrolled short rows, 2 K-width).
struct StoredRecord {
  std::uint8_t enabled = 1;
  index_t short_max = 4;
  index_t medium_max = 32;
  std::uint64_t rows_by_class[4] = {0, 0, 0, 0};
  std::uint64_t dense_panels = 0;
  std::uint64_t dense_tile_rows = 0;
  std::uint8_t variant[4] = {0, 0, 0, 0};
  std::uint64_t dense_full_rows = 0;  ///< v4 only
};

/// The record an old writer stored for `plan`.
inline StoredRecord stored_record_of(const core::ExecutionPlan& plan) {
  StoredRecord r;
  const sparse::CsrMatrix& sp = plan.tiled.sparse_part();
  for (index_t i = 0; i < sp.rows(); ++i) {
    const index_t nnz = sp.row_nnz(i);
    ++r.rows_by_class[nnz == 0 ? 0 : nnz <= r.short_max ? 1 : nnz <= r.medium_max ? 2 : 3];
  }
  for (const aspt::Panel& p : plan.tiled.panels()) {
    if (!p.dense_cols.empty()) ++r.dense_panels;
  }
  r.dense_tile_rows = plan.spec.dense_tile_rows;
  r.dense_full_rows = plan.spec.dense_full_rows;
  r.variant[1] = r.rows_by_class[1] > 0 ? 1 : 0;
  r.variant[2] = r.rows_by_class[2] > 0 ? 2 : 0;
  r.variant[3] = r.rows_by_class[3] > 0 ? 2 : 0;
  return r;
}

/// One router record in the old writer's field-by-field v4 layout.
struct V4RouteRecord {
  std::uint8_t workload = 0;  ///< 0 spmm .. 2 spgemm; retired: 3 shard, 4 coalesce
  std::int32_t k_bucket = 5;
  std::uint8_t spec_mode = 0;  ///< 3 was the retired spec-all mode
  std::uint8_t micro_gemm = 0;  ///< 1 was the retired micro-GEMM arm
  std::uint8_t shard_strategy = 255;  ///< anything but 255 pinned a retired strategy
  std::uint8_t threads = 0;
  std::uint8_t batch = 0;  ///< the retired coalescing cap
  std::uint8_t accumulator = 255;
  std::uint64_t count = 4;
  double total_us = 40.0;
  double min_us = 10.0;
  double max_us = 10.0;
};

/// Bytes of one record on disk.
inline constexpr std::size_t kV4RouteRecordBytes = 43;

/// `plan` saved by the current writer (the version 2 layout under
/// version 5), relabelled `version` and followed by `r`: a v3 file, or
/// the record part of a v4 one.
inline Bytes stored_record_plan(const core::ExecutionPlan& plan, std::uint32_t version,
                                const StoredRecord& r) {
  std::stringstream ss;
  core::save_plan(plan, ss);
  Bytes b{ss.str()};
  std::uint32_t written = 0;
  std::memcpy(&written, b.s.data() + 10, sizeof(written));
  EXPECT_EQ(written, 5u) << "writer no longer writes version 5";
  std::memcpy(b.s.data() + 10, &version, sizeof(version));
  b.put(r.enabled).put(r.short_max).put(r.medium_max);
  for (const std::uint64_t n : r.rows_by_class) b.put(n);
  b.put(r.dense_panels).put(r.dense_tile_rows);
  for (const std::uint8_t v : r.variant) b.put(v);
  if (version >= 4) b.put(r.dense_full_rows);
  return b;
}

/// A v3 file of `plan` storing `r`.
inline std::string v3_plan(const core::ExecutionPlan& plan, const StoredRecord& r) {
  return stored_record_plan(plan, 3, r).s;
}

/// A v4 file of `plan` storing `r`, then `fingerprint`, `count` and
/// `records`: the tail a binary that stamped a fingerprint and persisted
/// its router table wrote.
inline std::string v4_plan(const core::ExecutionPlan& plan, const StoredRecord& r,
                           const std::string& fingerprint, std::uint64_t count,
                           const std::vector<V4RouteRecord>& records) {
  Bytes b = stored_record_plan(plan, 4, r);
  const std::size_t head = b.s.size();
  b.put<std::uint64_t>(fingerprint.size());
  b.s += fingerprint;
  b.put(count);
  for (const V4RouteRecord& rec : records) {
    b.put(rec.workload).put(rec.k_bucket);
    b.put(rec.spec_mode).put(rec.micro_gemm).put(rec.shard_strategy);
    b.put(rec.threads).put(rec.batch).put(rec.accumulator);
    b.put(rec.count).put(rec.total_us).put(rec.min_us).put(rec.max_us);
  }
  EXPECT_EQ(b.s.size(), head + 16 + fingerprint.size() + records.size() * kV4RouteRecordBytes);
  return b.s;
}

/// A v4 file of `plan` with the record an old writer stored for it.
inline std::string v4_plan_with_records(const core::ExecutionPlan& plan,
                                        const std::string& fingerprint, std::uint64_t count,
                                        const std::vector<V4RouteRecord>& records) {
  return v4_plan(plan, stored_record_of(plan), fingerprint, count, records);
}

}  // namespace rrspmm::test
