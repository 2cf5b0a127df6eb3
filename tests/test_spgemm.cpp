// SpGEMM correctness: agreement with an independent map-based Gustavson
// reference, structural invariants of the output, and the bitwise
// determinism contract — identical bits across accumulator choice
// (hash, sort, and the dense accumulator auto_select uses on narrow B),
// thread count, row-range partition, processing order, and the fault
// degradation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "runtime/execute.hpp"
#include "sparse/permute.hpp"
#include "spgemm/spgemm.hpp"
#include "synth/corpus.hpp"
#include "synth/generators.hpp"
#include "test_util.hpp"

namespace rrspmm {
namespace {

using sparse::CsrMatrix;
using spgemm::Accumulator;
using spgemm::SpgemmConfig;

/// Independent reference: Gustavson with a std::map accumulator. The
/// map receives contributions in the same ascending-(j, then B-column)
/// arrival order as the library accumulators and folds duplicates with
/// += in that order, so its result is bitwise comparable, not merely
/// approximately equal.
CsrMatrix map_reference(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> colidx;
  std::vector<value_t> values;
  for (index_t i = 0; i < a.rows(); ++i) {
    std::map<index_t, value_t> acc;
    const auto acols = a.row_cols(i);
    const auto avals = a.row_vals(i);
    for (std::size_t t = 0; t < acols.size(); ++t) {
      const auto bcols = b.row_cols(acols[t]);
      const auto bvals = b.row_vals(acols[t]);
      for (std::size_t u = 0; u < bcols.size(); ++u) {
        const value_t p = avals[t] * bvals[u];
        const auto [it, fresh] = acc.emplace(bcols[u], p);
        if (!fresh) it->second += p;
      }
    }
    for (const auto& [c, v] : acc) {
      colidx.push_back(c);
      values.push_back(v);
    }
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(colidx.size());
  }
  return CsrMatrix(a.rows(), b.cols(), std::move(rowptr), std::move(colidx), std::move(values));
}

/// Exact output counts by gather-sort-unique per row: the symbolic
/// reference every symbolic path must reproduce.
std::vector<offset_t> sort_unique_rowptr(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<offset_t> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index_t> cols;
  for (index_t i = 0; i < a.rows(); ++i) {
    cols.clear();
    for (const index_t j : a.row_cols(i)) {
      const auto bcols = b.row_cols(j);
      cols.insert(cols.end(), bcols.begin(), bcols.end());
    }
    std::sort(cols.begin(), cols.end());
    const auto distinct = std::unique(cols.begin(), cols.end()) - cols.begin();
    rowptr[static_cast<std::size_t>(i) + 1] = rowptr[static_cast<std::size_t>(i)] + distinct;
  }
  return rowptr;
}

/// Compares value bit patterns, not float equality, so a +0.0 / -0.0
/// mismatch fails.
void expect_bitwise_equal(const CsrMatrix& want, const CsrMatrix& got, const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  ASSERT_EQ(want.rowptr(), got.rowptr()) << what;
  ASSERT_EQ(want.colidx(), got.colidx()) << what;
  ASSERT_EQ(want.values().size(), got.values().size()) << what;
  for (std::size_t k = 0; k < want.values().size(); ++k) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.values()[k]),
              std::bit_cast<std::uint32_t>(got.values()[k]))
        << what << " value " << k;
  }
}

SpgemmConfig with(Accumulator acc) {
  SpgemmConfig cfg;
  cfg.accumulator = acc;
  return cfg;
}

TEST(Spgemm, MatchesMapReferenceOnSquaredCorpus) {
  for (const auto& entry : synth::build_test_corpus()) {
    if (entry.matrix.rows() != entry.matrix.cols()) continue;
    const CsrMatrix want = map_reference(entry.matrix, entry.matrix);
    for (const Accumulator acc :
         {Accumulator::hash, Accumulator::sort, Accumulator::auto_select}) {
      const CsrMatrix got = spgemm::multiply(entry.matrix, entry.matrix, with(acc));
      expect_bitwise_equal(want, got,
                           entry.name + " acc=" + spgemm::to_string(acc));
    }
  }
}

TEST(Spgemm, MatchesMapReferenceOnRectangularOperands) {
  const CsrMatrix a = synth::erdos_renyi(160, 96, 1200, 41);
  const CsrMatrix b = synth::erdos_renyi(96, 240, 1500, 42);
  const CsrMatrix want = map_reference(a, b);
  for (const Accumulator acc :
       {Accumulator::hash, Accumulator::sort, Accumulator::auto_select}) {
    spgemm::AccumulatorCounts counts;
    expect_bitwise_equal(want, spgemm::multiply(a, b, with(acc), &counts),
                         std::string("rect acc=") + spgemm::to_string(acc));
    if (acc == Accumulator::auto_select) {
      EXPECT_EQ(counts.dense_rows, static_cast<std::uint64_t>(a.rows()));  // B.cols = 240
    }
  }
}

TEST(Spgemm, FirstContributionKeepsNegativeZero) {
  // Row 0: column 0's only product is -1 * 0.0 = -0.0; column 1 sums
  // -0.0 + -0.0 = -0.0. Seeding either sum with +0.0 would flip the sign.
  const CsrMatrix a(1, 2, {0, 2}, {0, 1}, {-1.0f, 1.0f});
  const CsrMatrix b(2, 2, {0, 2, 3}, {0, 1, 1}, {0.0f, 0.0f, -0.0f});
  const CsrMatrix want = map_reference(a, b);
  ASSERT_EQ(want.nnz(), 2);
  EXPECT_TRUE(std::signbit(want.values()[0]));
  EXPECT_TRUE(std::signbit(want.values()[1]));
  for (const Accumulator acc :
       {Accumulator::hash, Accumulator::sort, Accumulator::auto_select}) {
    expect_bitwise_equal(want, spgemm::multiply(a, b, with(acc)),
                         std::string("signed zero acc=") + spgemm::to_string(acc));
  }
}

TEST(Spgemm, WideBFallsBackToPerRowChoice) {
  const index_t wide = spgemm::kDenseMaxCols + 4464;
  const CsrMatrix a = synth::erdos_renyi(48, 40, 300, 44);
  const CsrMatrix b = synth::erdos_renyi(40, wide, 400, 45);
  ASSERT_GT(b.cols(), spgemm::kDenseMaxCols);
  const CsrMatrix want = map_reference(a, b);
  EXPECT_EQ(spgemm::symbolic(a, b).rowptr, sort_unique_rowptr(a, b));
  spgemm::AccumulatorCounts counts;
  expect_bitwise_equal(want, spgemm::multiply(a, b, {}, &counts), "wide auto");
  EXPECT_EQ(counts.dense_rows, 0u);
  EXPECT_EQ(counts.hash_rows + counts.sort_rows, static_cast<std::uint64_t>(a.rows()));
  // A low threshold sends the longer rows to the hash accumulator too.
  SpgemmConfig low = with(Accumulator::auto_select);
  low.sort_threshold = 8;
  spgemm::AccumulatorCounts mixed;
  expect_bitwise_equal(want, spgemm::multiply(a, b, low, &mixed), "wide auto low threshold");
  EXPECT_GT(mixed.hash_rows, 0u);
  EXPECT_EQ(mixed.dense_rows, 0u);
}

TEST(Spgemm, BitmapSymbolicMatchesSortUniqueOnCorpus) {
  for (const auto& entry : synth::build_test_corpus()) {
    const CsrMatrix& m = entry.matrix;
    // Square matrices are squared; the rest multiply by their transpose.
    const CsrMatrix b = m.rows() == m.cols() ? m : sparse::transpose(m);
    ASSERT_LE(b.cols(), spgemm::kDenseMaxCols) << entry.name;
    EXPECT_EQ(spgemm::symbolic(m, b).rowptr, sort_unique_rowptr(m, b)) << entry.name;
  }
}

TEST(Spgemm, PinnedHashAlternatingLongAndShortRows) {
  // Even rows are long (upper bound in the hundreds: a large table),
  // odd rows short (a 16- or 32-slot prefix of the same table), so
  // consecutive rows keep switching capacity class.
  const index_t rows = 64, inner = 256;
  std::vector<std::vector<value_t>> dense(static_cast<std::size_t>(rows),
                                          std::vector<value_t>(static_cast<std::size_t>(inner)));
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = i % 2 == 0 ? 48 : 1;
    for (index_t t = 0; t < len; ++t) {
      const index_t j = (i * 37 + t * 5) % inner;
      dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          static_cast<value_t>((i + t) % 7 + 1) * 0.25f;
    }
  }
  const CsrMatrix a = test::csr(dense);
  const CsrMatrix b = synth::erdos_renyi(inner, 300, 3000, 46);
  expect_bitwise_equal(map_reference(a, b), spgemm::multiply(a, b, with(Accumulator::hash)),
                       "alternating rows, pinned hash");
}

TEST(Spgemm, HandlesEmptyAndHypersparseInputs) {
  // Fully empty operands.
  const CsrMatrix e1(3, 4, {0, 0, 0, 0}, {}, {});
  const CsrMatrix e2(4, 2, {0, 0, 0, 0, 0}, {}, {});
  const CsrMatrix c = spgemm::multiply(e1, e2);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.nnz(), 0);

  // Zero-row / zero-col shapes.
  const CsrMatrix z0(0, 5, {0}, {}, {});
  const CsrMatrix z1(5, 0, {0, 0, 0, 0, 0, 0}, {}, {});
  EXPECT_EQ(spgemm::multiply(z0, z1).nnz(), 0);

  // Empty rows interleaved with populated ones on both sides.
  const CsrMatrix a = test::csr({{0, 2, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 3}});
  const CsrMatrix b = test::csr({{0, 0}, {5, 0}, {0, 0}, {0, 7}});
  expect_bitwise_equal(map_reference(a, b), spgemm::multiply(a, b), "empty rows");

  // Hypersparse: a few scattered entries in a large frame.
  const CsrMatrix h = synth::erdos_renyi(1000, 1000, 12, 43);
  for (const Accumulator acc :
       {Accumulator::hash, Accumulator::sort, Accumulator::auto_select}) {
    expect_bitwise_equal(map_reference(h, h), spgemm::multiply(h, h, with(acc)),
                         std::string("hypersparse acc=") + spgemm::to_string(acc));
  }
}

TEST(Spgemm, OutputIsDuplicateFreeAndSorted) {
  for (const auto& entry : synth::build_test_corpus()) {
    if (entry.matrix.rows() != entry.matrix.cols()) continue;
    const CsrMatrix c = spgemm::multiply(entry.matrix, entry.matrix);
    EXPECT_NO_THROW(c.validate()) << entry.name;
    for (index_t i = 0; i < c.rows(); ++i) {
      const auto cols = c.row_cols(i);
      for (std::size_t j = 1; j < cols.size(); ++j) {
        ASSERT_LT(cols[j - 1], cols[j]) << entry.name << " row " << i;
      }
    }
  }
}

TEST(Spgemm, SymbolicRowptrMatchesNumericFill) {
  const auto corpus = synth::build_test_corpus();
  const CsrMatrix& m = corpus.front().matrix;
  const spgemm::SymbolicResult sym = spgemm::symbolic(m, m);
  const CsrMatrix c = spgemm::multiply(m, m);
  EXPECT_EQ(sym.rowptr, c.rowptr());
  EXPECT_EQ(sym.nnz(), c.nnz());
  EXPECT_GE(sym.upper_bound_nnz, sym.nnz());
  EXPECT_DOUBLE_EQ(sym.flops, 2.0 * static_cast<double>(sym.upper_bound_nnz));
}

TEST(Spgemm, RowRangePartitionsAreBitwiseEqual) {
  const auto corpus = synth::build_test_corpus();
  const CsrMatrix& m = corpus.front().matrix;
  const CsrMatrix want = spgemm::multiply(m, m);
  const spgemm::SymbolicResult sym = spgemm::symbolic(m, m);

  for (const index_t step : {1, 7, 64, 200, m.rows()}) {
    std::vector<index_t> colidx(static_cast<std::size_t>(sym.nnz()));
    std::vector<value_t> values(static_cast<std::size_t>(sym.nnz()));
    for (index_t rb = 0; rb < m.rows(); rb += step) {
      const index_t re = std::min(m.rows(), static_cast<index_t>(rb + step));
      spgemm::numeric_rows(m, m, sym.rowptr, colidx.data(), values.data(), rb, re);
    }
    EXPECT_EQ(colidx, want.colidx()) << "step " << step;
    EXPECT_EQ(values, want.values()) << "step " << step;
  }
}

TEST(Spgemm, ProcessingOrderDoesNotChangeBits) {
  const auto corpus = synth::build_test_corpus();
  const CsrMatrix& m = corpus.front().matrix;
  const CsrMatrix want = spgemm::multiply(m, m);
  const spgemm::SymbolicResult sym = spgemm::symbolic(m, m);

  // Reverse processing order: position p computes row rows-1-p.
  std::vector<index_t> order(static_cast<std::size_t>(m.rows()));
  for (index_t i = 0; i < m.rows(); ++i) {
    order[static_cast<std::size_t>(i)] = static_cast<index_t>(m.rows() - 1 - i);
  }
  std::vector<index_t> colidx(static_cast<std::size_t>(sym.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(sym.nnz()));
  spgemm::numeric_rows(m, m, sym.rowptr, colidx.data(), values.data(), 0, m.rows(), {}, &order);
  EXPECT_EQ(colidx, want.colidx());
  EXPECT_EQ(values, want.values());
}

TEST(Spgemm, ParallelExecutionBitwiseEqualAtEveryThreadCount) {
  const auto corpus = synth::build_test_corpus();
  for (const auto& entry : {corpus[0], corpus[4]}) {
    if (entry.matrix.rows() != entry.matrix.cols()) continue;
    const CsrMatrix& m = entry.matrix;
    const CsrMatrix want = spgemm::multiply(m, m);
    for (const core::ExecutionPlan& plan :
         {core::build_plan(m, {}), core::build_plan_nr(m, {})}) {
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        runtime::WorkerPool pool(threads);
        CsrMatrix c;
        runtime::parallel_spgemm(pool, plan, m, m, c);
        expect_bitwise_equal(want, c,
                             entry.name + " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(Spgemm, AccumulatorCountsCoverEveryRow) {
  const auto corpus = synth::build_test_corpus();
  const CsrMatrix& m = corpus.front().matrix;
  const auto rows = static_cast<std::uint64_t>(m.rows());
  spgemm::AccumulatorCounts counts;
  spgemm::multiply(m, m, {}, &counts);
  EXPECT_EQ(counts.hash_rows + counts.sort_rows + counts.dense_rows, rows);
  EXPECT_EQ(counts.dense_rows, rows);  // narrow B: auto_select is dense

  spgemm::AccumulatorCounts all_sort;
  spgemm::multiply(m, m, with(Accumulator::sort), &all_sort);
  EXPECT_EQ(all_sort.hash_rows, 0u);
  EXPECT_EQ(all_sort.dense_rows, 0u);
  EXPECT_EQ(all_sort.sort_rows, rows);

  spgemm::AccumulatorCounts all_hash;
  spgemm::multiply(m, m, with(Accumulator::hash), &all_hash);
  EXPECT_EQ(all_hash.hash_rows, rows);
  EXPECT_EQ(all_hash.sort_rows + all_hash.dense_rows, 0u);
}

TEST(Spgemm, RejectsShapeMismatch) {
  const CsrMatrix a = synth::erdos_renyi(16, 20, 40, 1);
  const CsrMatrix b = synth::erdos_renyi(21, 8, 40, 2);
  EXPECT_THROW(spgemm::multiply(a, b), invalid_matrix);
  EXPECT_THROW(spgemm::symbolic(a, b), invalid_matrix);
}

TEST(Spgemm, ArmedFaultPlanThrowsWithProbesAndDegradesBitwiseWithout) {
  const auto corpus = synth::build_test_corpus();
  const CsrMatrix& m = corpus.front().matrix;
  const CsrMatrix want = spgemm::multiply(m, m);

  fault::FaultPlan plan;
  plan.seed = 9;
  for (const char* point :
       {fault::points::kSpgemmSymbolic, fault::points::kSpgemmAccumulate}) {
    fault::FaultRule r;
    r.point = point;
    r.kind = fault::FaultKind::throw_error;
    r.probability = 1.0;
    plan.rules.push_back(std::move(r));
  }
  fault::ScopedFaultPlan armed(std::move(plan));

  EXPECT_THROW(spgemm::multiply(m, m), fault::injected_fault);

  // The degradation configuration: sequential sort accumulator, probes
  // off. Must succeed under the still-armed plan and match exactly.
  SpgemmConfig degraded;
  degraded.accumulator = Accumulator::sort;
  degraded.probes = false;
  expect_bitwise_equal(want, spgemm::multiply(m, m, degraded), "degraded");
}

}  // namespace
}  // namespace rrspmm
