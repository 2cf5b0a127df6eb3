// matrix_inspect — command-line tool for running the paper's pipeline on
// a user-supplied Matrix Market file (e.g. a SuiteSparse download):
//
//   ./examples/matrix_inspect path/to/matrix.mtx [K]
//   ./examples/matrix_inspect --demo
//
// Prints the structural statistics the §4 heuristics consult, runs both
// plans, reports the device-model comparison at width K (default 512),
// and writes the reordered matrix next to the input as <name>.reordered.mtx.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/pipeline.hpp"
#include "core/plan_io.hpp"
#include "io/mm_stream.hpp"
#include "sparse/io_mm.hpp"
#include "sparse/permute.hpp"
#include "sparse/stats.hpp"
#include "synth/generators.hpp"

using namespace rrspmm;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <matrix.mtx> [K] | --demo\n", argv[0]);
    return 2;
  }
  sparse::CsrMatrix m;
  std::string out_path;
  const index_t k = argc > 2 ? static_cast<index_t>(std::atoi(argv[2])) : 512;
  try {
    if (std::string(argv[1]) == "--demo") {
      synth::ClusteredParams p;
      p.rows = 10240;
      p.cols = 10240;
      p.num_groups = 80;
      p.group_cols = 96;
      p.row_nnz = 18;
      p.noise_nnz = 1;
      p.scatter = true;
      m = synth::clustered_rows(p, 7);
      out_path = "/tmp/demo.reordered.mtx";
      std::printf("demo matrix (scattered latent clusters)\n");
    } else {
      m = io::read_matrix_market_streamed(argv[1]);
      out_path = std::string(argv[1]) + ".reordered.mtx";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const auto st = sparse::compute_stats(m);
  std::printf("rows %d  cols %d  nnz %lld  avg row nnz %.1f  max row nnz %d  empty rows %d\n",
              st.rows, st.cols, static_cast<long long>(st.nnz), st.avg_row_nnz, st.max_row_nnz,
              st.empty_rows);
  std::printf("consecutive-row Jaccard similarity: %.4f\n", st.avg_consecutive_jaccard);

  const core::PipelineConfig cfg;
  const auto plan = core::build_plan(m, cfg);
  std::printf("\npipeline decisions (paper §4):\n");
  std::printf("  dense-tile ratio %.2f%% -> round 1 %s (threshold %.0f%%)\n",
              100.0 * plan.stats.dense_ratio_before,
              plan.stats.round1_applied ? "APPLIED" : "skipped", 100.0 * cfg.dense_ratio_skip);
  std::printf("  sparse-part similarity %.4f -> round 2 %s (threshold %.2f)\n",
              plan.stats.avg_sim_before, plan.stats.round2_applied ? "APPLIED" : "skipped",
              cfg.avg_sim_skip);
  std::printf("  dense-tile ratio after: %.2f%%; candidate pairs: %zu; preprocessing %.2f s\n",
              100.0 * plan.stats.dense_ratio_after,
              plan.stats.round1_candidates + plan.stats.round2_candidates,
              plan.stats.preprocess_seconds);

  const auto dev = gpusim::DeviceConfig::p100();
  const auto nr = core::build_plan_nr(m, cfg);
  const auto sim_rw = gpusim::simulate_spmm_rowwise(m, k, dev);
  const auto sim_nr = core::simulate_spmm(nr, k, dev);
  const auto sim_rr = core::simulate_spmm(plan, k, dev);
  const auto sdd_nr = core::simulate_sddmm(nr, k, dev);
  const auto sdd_rr = core::simulate_sddmm(plan, k, dev);
  std::printf("\nsimulated P100 kernels at K=%d:\n", k);
  std::printf("  SpMM : row-wise %8.1f GFLOPS | ASpT-NR %8.1f | ASpT-RR %8.1f  (RR vs best "
              "%.2fx)\n",
              sim_rw.gflops(), sim_nr.gflops(), sim_rr.gflops(),
              std::min(sim_rw.time_s, sim_nr.time_s) / sim_rr.time_s);
  std::printf("  SDDMM:                       ASpT-NR %8.1f | ASpT-RR %8.1f  (RR vs NR %.2fx)\n",
              sdd_nr.gflops(), sdd_rr.gflops(), sdd_nr.time_s / sdd_rr.time_s);

  if (plan.stats.round1_applied) {
    sparse::write_matrix_market(sparse::permute_rows(m, plan.row_perm), out_path);
    std::printf("\nreordered matrix written to %s\n", out_path.c_str());
  } else {
    std::printf("\nno row permutation applied; nothing written\n");
  }

  // Persist the full execution plan (the paper's offline-preprocessing
  // deployment mode): a later process loads it with core::load_plan and
  // skips the LSH + clustering entirely.
  const std::string plan_path = out_path + ".plan";
  core::save_plan(plan, plan_path);
  const auto reloaded = core::load_plan(plan_path);
  std::printf("execution plan saved to %s (%lld dense nnz, reload verified)\n",
              plan_path.c_str(), static_cast<long long>(reloaded.tiled.stats().nnz_dense));
  return 0;
}
