// google-benchmark microbenchmarks of the host kernels and the
// preprocessing stages. These measure real CPU wall-clock (unlike the
// table/figure benches, which use the device model). Note that on a CPU
// the large private caches already serve the reuse the GPU must stage
// into shared memory, so the ASpT-structured host kernel is a
// correctness/throughput reference, not a CPU speedup claim — the
// paper's performance argument is specific to the GPU memory hierarchy.
#include <benchmark/benchmark.h>

#include <string>

#include "aspt/aspt.hpp"
#include "cluster/hierarchy.hpp"
#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/spmm.hpp"
#include "lsh/candidates.hpp"
#include "runtime/worker_pool.hpp"
#include "synth/generators.hpp"

namespace {

using namespace rrspmm;

sparse::CsrMatrix bench_matrix(bool scattered) {
  synth::ClusteredParams p;
  p.rows = 4096;
  p.cols = 4096;
  p.num_groups = 64;
  p.group_cols = 64;
  p.row_nnz = 16;
  p.noise_nnz = 0;
  p.scatter = scattered;
  return synth::clustered_rows(p, 77);
}

void BM_SpmmRowwise(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto k = static_cast<index_t>(state.range(0));
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 1);
  for (auto _ : state) {
    kernels::spmm_rowwise(m, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}
BENCHMARK(BM_SpmmRowwise)->Arg(32)->Arg(64)->Arg(128);

void BM_SpmmAsptReordered(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto k = static_cast<index_t>(state.range(0));
  const auto plan = core::build_plan(m, core::PipelineConfig{});
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 2);
  for (auto _ : state) {
    core::run_spmm(plan, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}
BENCHMARK(BM_SpmmAsptReordered)->Arg(32)->Arg(64)->Arg(128);

void BM_SddmmRowwise(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto k = static_cast<index_t>(state.range(0));
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 3);
  sparse::fill_random(y, 4);
  std::vector<value_t> out;
  for (auto _ : state) {
    kernels::sddmm_rowwise(m, x, y, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}
BENCHMARK(BM_SddmmRowwise)->Arg(32)->Arg(64)->Arg(128);

void BM_SddmmAsptReordered(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto k = static_cast<index_t>(state.range(0));
  const auto plan = core::build_plan(m, core::PipelineConfig{});
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 5);
  sparse::fill_random(y, 6);
  std::vector<value_t> out(static_cast<std::size_t>(m.nnz()));
  for (auto _ : state) {
    core::run_sddmm(plan, m, x, y, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}
BENCHMARK(BM_SddmmAsptReordered)->Arg(32)->Arg(64)->Arg(128);

void BM_MinhashSignatures(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto siglen = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::compute_signatures(m, siglen, 1));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * siglen);
}
BENCHMARK(BM_MinhashSignatures)->Arg(32)->Arg(128);

void BM_CandidatePairs(benchmark::State& state) {
  const auto m = bench_matrix(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::find_candidate_pairs(m, lsh::LshConfig{}));
  }
}
BENCHMARK(BM_CandidatePairs);

void BM_BandPairs(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const lsh::LshConfig cfg;
  const auto sig = lsh::compute_signatures(m, cfg.siglen, cfg.seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::band_pairs(sig, m, cfg));
  }
}
BENCHMARK(BM_BandPairs);

// Parallel preprocessing at a given worker count; the output is bitwise
// identical to BM_CandidatePairs, only the wall-clock changes.
void BM_CandidatePairsParallel(benchmark::State& state) {
  const auto m = bench_matrix(true);
  runtime::WorkerPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::find_candidate_pairs(m, lsh::LshConfig{}, &pool));
  }
}
BENCHMARK(BM_CandidatePairsParallel)->Arg(2)->Arg(4)->Arg(8);

void BM_ClusterReorder(benchmark::State& state) {
  const auto m = bench_matrix(true);
  const auto pairs = lsh::find_candidate_pairs(m, lsh::LshConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::cluster_reorder(m, pairs, cluster::ClusterConfig{}));
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_ClusterReorder);

void BM_AsptBuild(benchmark::State& state) {
  const auto m = bench_matrix(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aspt::build_aspt(m, aspt::AsptConfig{}));
  }
}
BENCHMARK(BM_AsptBuild);

void BM_FullPipeline(benchmark::State& state) {
  const auto m = bench_matrix(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_plan(m, core::PipelineConfig{}));
  }
}
BENCHMARK(BM_FullPipeline);

// --- per-ISA kernel columns ------------------------------------------
//
// The BENCHMARK() entries above run whatever the process-wide dispatch
// resolves to (auto). These registered variants force each runnable
// backend through a KernelConfig, so one run prints a scalar-vs-SIMD
// column per ISA for the same matrix and K.

namespace simd = kernels::simd;

const aspt::AsptMatrix& bench_tiling() {
  static const aspt::AsptMatrix tiled = aspt::build_aspt(bench_matrix(true), aspt::AsptConfig{});
  return tiled;
}

void BM_SpmmAsptIsa(benchmark::State& state, simd::Isa isa) {
  const auto m = bench_matrix(true);
  const auto& tiled = bench_tiling();
  const auto k = static_cast<index_t>(state.range(0));
  simd::KernelConfig cfg;
  cfg.isa = isa;
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 7);
  for (auto _ : state) {
    kernels::spmm_aspt(tiled, x, y, nullptr, cfg);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}

void BM_SddmmAsptIsa(benchmark::State& state, simd::Isa isa) {
  const auto m = bench_matrix(true);
  const auto& tiled = bench_tiling();
  const auto k = static_cast<index_t>(state.range(0));
  simd::KernelConfig cfg;
  cfg.isa = isa;
  sparse::DenseMatrix x(m.cols(), k), y(m.rows(), k);
  sparse::fill_random(x, 8);
  sparse::fill_random(y, 9);
  std::vector<value_t> out;
  for (auto _ : state) {
    kernels::sddmm_aspt(tiled, x, y, out, nullptr, cfg);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * k * 2);
}

void register_isa_benchmarks() {
  for (int i = 0; i < static_cast<int>(simd::kIsaCount); ++i) {
    const auto isa = static_cast<simd::Isa>(i);
    if (!simd::isa_supported(isa)) continue;
    const std::string tag(simd::isa_name(isa));
    benchmark::RegisterBenchmark(("BM_SpmmAspt_" + tag).c_str(), BM_SpmmAsptIsa, isa)
        ->Arg(32)
        ->Arg(128);
    benchmark::RegisterBenchmark(("BM_SddmmAspt_" + tag).c_str(), BM_SddmmAsptIsa, isa)
        ->Arg(32)
        ->Arg(128);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_isa_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
