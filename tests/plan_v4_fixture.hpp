// Hand-written plan-file fixtures for version-4 files that carry a matrix
// fingerprint and router records. Binaries that had a router stamped the
// fingerprint and persisted their router table after it; the current
// writer writes an empty fingerprint and a record count of 0, and the
// reader skips whatever it finds in both.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
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

/// `plan` saved by the current writer, with `fingerprint` in place of its
/// empty fingerprint, `count` in place of its trailing zero record count,
/// and `records` appended after it: the tail an older binary that stamped
/// a fingerprint and persisted its router table wrote.
inline std::string v4_plan_with_records(const core::ExecutionPlan& plan,
                                        const std::string& fingerprint, std::uint64_t count,
                                        const std::vector<V4RouteRecord>& records) {
  std::stringstream ss;
  core::save_plan(plan, ss);
  const std::string current = ss.str();
  const std::string body = current.substr(0, current.size() - 2 * sizeof(std::uint64_t));
  Bytes zeros;
  zeros.put<std::uint64_t>(0).put<std::uint64_t>(0);
  EXPECT_EQ(current.substr(body.size()), zeros.s)
      << "writer no longer ends with an empty fingerprint and a zero count";

  Bytes b{body};
  b.put<std::uint64_t>(fingerprint.size());
  b.s += fingerprint;
  b.put(count);
  for (const V4RouteRecord& r : records) {
    b.put(r.workload).put(r.k_bucket);
    b.put(r.spec_mode).put(r.micro_gemm).put(r.shard_strategy);
    b.put(r.threads).put(r.batch).put(r.accumulator);
    b.put(r.count).put(r.total_us).put(r.min_us).put(r.max_us);
  }
  EXPECT_EQ(b.s.size(), body.size() + 16 + fingerprint.size() +
                            records.size() * kV4RouteRecordBytes);
  return b.s;
}

}  // namespace rrspmm::test
