// SpGEMM effectiveness bench: C = A·A over the two SpGEMM corpus
// families (graph-adjacency-squared, sampled-GNN-frontier) plus an
// Erdős–Rényi control. Two deterministic comparisons:
//
//   * accumulator family — hash-map, sort-based and auto_select (the
//     dense accumulator on these narrow operands) must be bitwise
//     identical; wall-clock and auto's row histogram are reported but
//     never gated on;
//   * reorder effectiveness — the simulated Gustavson kernel's B-row
//     L2 hit rate and roofline time with A's rows processed in the
//     paper's RR order vs natural order. On the clustered families the
//     reordered pass must strictly win; on the control the pipeline
//     skips reordering and both passes are identical.
//
// The device is a P100 with the L2 shrunk to 512 KiB so the B-row
// working set of the (container-sized) subjects exceeds cache — the
// same regime the full-sized families hit on real hardware. Prints a
// fixed-width table plus PASS/FAIL checks and writes BENCH_spgemm.json.
//
//   RRSPMM_CORPUS_N — subjects per clustered family (default 2, cap 4)
//   RRSPMM_SCALE    — linear multiplier on matrix rows (default 1)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "gpusim/traffic.hpp"
#include "harness/render.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"

namespace rrspmm {
namespace {

struct Subject {
  std::string name;
  std::string family;
  sparse::CsrMatrix matrix;
  bool expect_reorder_win = false;
};

std::vector<Subject> build_subjects() {
  const synth::CorpusConfig cc = synth::corpus_config_from_env();
  int count = 2;
  if (const char* env = std::getenv("RRSPMM_CORPUS_N")) count = std::atoi(env);
  if (count > 4) count = 4;
  if (count < 1) count = 1;
  const auto dim = [&](index_t base) {
    const double v = static_cast<double>(base) * cc.scale;
    return v < 512 ? index_t{512} : static_cast<index_t>(v);
  };

  std::vector<Subject> subjects;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = cc.seed + static_cast<std::uint64_t>(i) * 131ULL;

    // Adjacency destined for squaring: disjoint per-group column blocks,
    // group membership scattered through the row order.
    synth::ClusteredParams adj;
    adj.num_groups = static_cast<index_t>(64 + 8 * i);
    adj.group_cols = 128;
    adj.rows = dim(adj.num_groups * adj.group_cols);
    adj.cols = adj.rows;
    adj.group_cols = adj.cols / adj.num_groups;
    adj.row_nnz = 16;
    adj.noise_nnz = 0;
    adj.scatter = true;
    adj.disjoint_pools = true;
    subjects.push_back({"adj_square_" + std::to_string(i), "adj_square",
                        synth::clustered_rows(adj, seed), true});

    // Community blocks ~44 columns wide at fanout 20: intra-community
    // Jaccard ≈ 0.3, enough for the LSH rounds to recover the
    // communities from the scattered row order.
    synth::GnnFrontierParams gnn;
    gnn.nodes = dim(12288);
    gnn.communities = static_cast<index_t>(gnn.nodes / (44 + 4 * i));
    gnn.fanout = 20;
    gnn.hub_cols = 24;
    gnn.hub_prob = 0.1;
    subjects.push_back({"gnn_frontier_" + std::to_string(i), "gnn_frontier",
                        synth::gnn_frontier(gnn, seed + 7), true});
  }

  // Control: uniformly scattered, nothing for the reorderer to recover —
  // the pipeline heuristics skip reordering and the two simulated passes
  // are identical.
  const index_t n = dim(8192);
  subjects.push_back({"erdos_renyi_ctl", "erdos_renyi",
                      synth::erdos_renyi(n, n, static_cast<offset_t>(n) * 14, cc.seed + 99),
                      false});
  return subjects;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

struct Row {
  std::string name, family;
  index_t rows = 0;
  offset_t nnz = 0, out_nnz = 0;
  double flops = 0.0;
  std::uint64_t hash_rows = 0, sort_rows = 0, dense_rows = 0;  ///< auto_select's choices
  double hash_ms = 0.0, sort_ms = 0.0, auto_ms = 0.0;           ///< informational only
  bool bitwise_equal = false;
  bool reordered_plan = false;
  gpusim::SimResult natural, reordered;

  double hit_rate(const gpusim::SimResult& r) const {
    return r.x_accesses > 0 ? static_cast<double>(r.x_l2_hits) / static_cast<double>(r.x_accesses)
                            : 0.0;
  }
  double speedup() const {
    return reordered.time_s > 0.0 ? natural.time_s / reordered.time_s : 1.0;
  }
};

std::string to_json(const std::vector<Row>& rows, std::size_t l2_bytes) {
  bench::JsonWriter js;
  js.obj_begin()
      .field("bench", "spgemm_scaling")
      .field("l2_bytes", l2_bytes)
      .key("results")
      .arr_begin();
  for (const Row& r : rows) {
    js.obj_begin()
        .field("matrix", r.name)
        .field("family", r.family)
        .field("rows", r.rows)
        .field("nnz", r.nnz)
        .field("out_nnz", r.out_nnz)
        .field("flops", r.flops)
        .field("hash_rows", r.hash_rows)
        .field("sort_rows", r.sort_rows)
        .field("dense_rows", r.dense_rows)
        .field("hash_ms", r.hash_ms)
        .field("sort_ms", r.sort_ms)
        .field("auto_ms", r.auto_ms)
        .field("bitwise_equal", r.bitwise_equal)
        .field("reordered_plan", r.reordered_plan)
        .field("natural_time_s", r.natural.time_s)
        .field("reordered_time_s", r.reordered.time_s)
        .field("natural_hit_rate", r.hit_rate(r.natural))
        .field("reordered_hit_rate", r.hit_rate(r.reordered))
        .field("speedup", r.speedup())
        .obj_end();
  }
  js.arr_end().obj_end();
  return js.str();
}

}  // namespace
}  // namespace rrspmm

int main() {
  using namespace rrspmm;
  using Clock = std::chrono::steady_clock;

  gpusim::DeviceConfig dev = gpusim::DeviceConfig::p100();
  dev.l2_bytes = 512 * 1024;

  const auto subjects = build_subjects();
  std::printf("== spgemm scaling: %zu subjects (A*A), L2=%zu KiB ==\n", subjects.size(),
              dev.l2_bytes / 1024);

  int failures = 0;
  std::vector<Row> rows;
  for (const Subject& s : subjects) {
    Row r;
    r.name = s.name;
    r.family = s.family;
    r.rows = s.matrix.rows();
    r.nnz = s.matrix.nnz();

    // Accumulator family: identical bits, reported wall-clock.
    spgemm::SpgemmConfig hash_cfg, sort_cfg, auto_cfg;
    hash_cfg.accumulator = spgemm::Accumulator::hash;
    sort_cfg.accumulator = spgemm::Accumulator::sort;
    auto t0 = Clock::now();
    const sparse::CsrMatrix c_hash = spgemm::multiply(s.matrix, s.matrix, hash_cfg);
    r.hash_ms = ms_since(t0);
    t0 = Clock::now();
    const sparse::CsrMatrix c_sort = spgemm::multiply(s.matrix, s.matrix, sort_cfg);
    r.sort_ms = ms_since(t0);
    r.bitwise_equal = c_hash == c_sort;
    r.out_nnz = c_hash.nnz();

    spgemm::AccumulatorCounts counts;
    const spgemm::SymbolicResult sym = spgemm::symbolic(s.matrix, s.matrix, auto_cfg);
    r.flops = sym.flops;
    {
      // Auto-select histogram over the same product (numeric only).
      t0 = Clock::now();
      sparse::CsrMatrix c_auto = spgemm::multiply(s.matrix, s.matrix, auto_cfg, &counts);
      r.auto_ms = ms_since(t0);
      r.bitwise_equal = r.bitwise_equal && c_auto == c_hash && sym.rowptr == c_auto.rowptr();
    }
    r.hash_rows = counts.hash_rows;
    r.sort_rows = counts.sort_rows;
    r.dense_rows = counts.dense_rows;

    // Reorder effectiveness through the traffic model. The processing
    // order composes both rounds: round 1's physical permutation and
    // round 2's sparse-remainder order (either alone may be identity —
    // gnn_frontier is typically recovered entirely by round 2).
    const core::ExecutionPlan plan = core::build_plan(s.matrix, {});
    r.reordered_plan = plan.stats.needs_reordering();
    const std::vector<index_t> order = core::spgemm_row_order(plan);
    r.natural = gpusim::simulate_spgemm_rowwise(s.matrix, s.matrix, dev);
    r.reordered =
        gpusim::simulate_spgemm_rowwise(s.matrix, s.matrix, dev, order.empty() ? nullptr : &order);
    rows.push_back(r);
  }

  std::vector<std::vector<std::string>> table;
  for (const Row& r : rows) {
    table.push_back({r.name, r.family, std::to_string(r.rows), std::to_string(r.out_nnz),
                     harness::fmt(r.hash_ms, 2), harness::fmt(r.sort_ms, 2),
                     harness::fmt(r.auto_ms, 2), std::to_string(r.hash_rows),
                     std::to_string(r.sort_rows), std::to_string(r.dense_rows),
                     harness::fmt(100.0 * r.hit_rate(r.natural), 1),
                     harness::fmt(100.0 * r.hit_rate(r.reordered), 1),
                     harness::fmt(r.speedup(), 3)});
  }
  std::printf("%s\n", harness::render_table({"matrix", "family", "rows", "out_nnz", "hash_ms",
                                             "sort_ms", "auto_ms", "auto_hash", "auto_sort",
                                             "auto_dense", "nat_hit%", "rr_hit%", "speedup"},
                                            table)
                          .c_str());

  // Acceptance checks — all deterministic functions of the inputs.
  for (const Row& r : rows) {
    if (!r.bitwise_equal) ++failures;
    std::printf("%s: %s hash/sort/auto accumulators bitwise identical\n",
                r.bitwise_equal ? "PASS" : "FAIL", r.name.c_str());
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (!subjects[i].expect_reorder_win) {
      // Control: nothing to recover, so processing order must be close
      // to a wash (the simulator is deterministic; the tolerance covers
      // incidental-duplicate cleanup the pipeline may still apply).
      const bool ok = r.speedup() > 0.95 && r.speedup() < 1.05;
      if (!ok) ++failures;
      std::printf("%s: %s control unaffected by reordering (speedup %.3f)\n", ok ? "PASS" : "FAIL",
                  r.name.c_str(), r.speedup());
      continue;
    }
    const bool hit_ok = r.hit_rate(r.reordered) > r.hit_rate(r.natural);
    const bool time_ok = r.reordered.time_s < r.natural.time_s;
    if (!hit_ok) ++failures;
    if (!time_ok) ++failures;
    std::printf("%s: %s reorder raises B-row L2 hit rate (%.1f%% -> %.1f%%)\n",
                hit_ok ? "PASS" : "FAIL", r.name.c_str(), 100.0 * r.hit_rate(r.natural),
                100.0 * r.hit_rate(r.reordered));
    std::printf("%s: %s reorder-aware beats unordered (x%.3f)\n", time_ok ? "PASS" : "FAIL",
                r.name.c_str(), r.speedup());
  }

  bench::write_bench_json("BENCH_spgemm.json", to_json(rows, dev.l2_bytes));

  if (failures > 0) {
    std::printf("%d spgemm check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all spgemm checks passed\n");
  return 0;
}
