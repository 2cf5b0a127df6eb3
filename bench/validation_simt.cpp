// Model validation — not a paper table, but the evidence that the tables
// mean something: for a corpus sample, the functional SIMT executor
// (which *runs* the kernels: real loads, shared-memory staging, block
// scheduling) must agree with
//   (a) the host CPU kernels on every computed value, and
//   (b) the analytic traffic simulators on every counter the figures and
//       tables are derived from (DRAM bytes, L2 traffic and hits,
//       shared-memory hits).
#include <cmath>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "gpusim/traffic.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "simt/kernels.hpp"
#include "sparse/dense.hpp"
#include "synth/corpus.hpp"

using namespace rrspmm;
using namespace rrspmm::bench;

int main() {
  // A sample of the corpus at reduced scale: the executor is a
  // single-threaded functional simulator, ~100x slower than the analytic
  // model, so validation runs on one representative per family.
  synth::CorpusConfig ccfg = synth::corpus_config_from_env();
  ccfg.count = std::min(ccfg.count, 10);
  ccfg.scale *= 0.1;
  const auto corpus = synth::build_corpus(ccfg);
  const auto dev = gpusim::DeviceConfig::p100();
  const index_t k = 128;

  std::printf("== Validation: functional SIMT executor vs analytic model vs host kernels ==\n");
  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  for (const auto& e : corpus) {
    const auto& m = e.matrix;
    sparse::DenseMatrix x(m.cols(), k), yd(m.rows(), k);
    sparse::fill_random(x, 1);
    sparse::fill_random(yd, 2);

    const auto tiled = aspt::build_aspt(m, aspt::AsptConfig{});

    // SpMM through ASpT: numerics vs host kernels, traffic vs model.
    sparse::DenseMatrix y_host(m.rows(), k), y_simt(m.rows(), k);
    kernels::spmm_aspt(tiled, x, y_host);
    const auto t_spmm = simt::spmm_aspt_simt(tiled, x, y_simt, dev);
    const auto m_spmm = gpusim::simulate_spmm_aspt(tiled, k, dev);
    const double num_diff = y_simt.max_abs_diff(y_host);
    const bool traffic_ok = t_spmm.accesses == m_spmm.x_accesses &&
                            t_spmm.l2_hits == m_spmm.x_l2_hits &&
                            t_spmm.shared_hits == m_spmm.shared_hits &&
                            std::abs(t_spmm.dram_bytes - m_spmm.dram_bytes) < 0.5;

    // SDDMM row-wise: same checks.
    std::vector<value_t> o_host, o_simt;
    kernels::sddmm_rowwise(m, x, yd, o_host);
    const auto t_sddmm = simt::sddmm_rowwise_simt(m, x, yd, o_simt, dev);
    const auto m_sddmm = gpusim::simulate_sddmm_rowwise(m, k, dev);
    double sddmm_diff = 0.0;
    for (std::size_t j = 0; j < o_host.size(); ++j) {
      sddmm_diff = std::max(sddmm_diff, std::abs(static_cast<double>(o_host[j]) - o_simt[j]));
    }
    const bool sddmm_ok = t_sddmm.accesses == m_sddmm.x_accesses &&
                          t_sddmm.l2_hits == m_sddmm.x_l2_hits &&
                          std::abs(t_sddmm.dram_bytes - m_sddmm.dram_bytes) < 0.5;

    const bool ok = traffic_ok && sddmm_ok && num_diff < 1e-3 && sddmm_diff < 1e-3;
    all_ok &= ok;
    rows.push_back({e.name, std::to_string(m.nnz()),
                    harness::fmt(num_diff, 7), traffic_ok ? "exact" : "MISMATCH",
                    harness::fmt(sddmm_diff, 7), sddmm_ok ? "exact" : "MISMATCH",
                    ok ? "OK" : "FAIL"});
    std::fprintf(stderr, "validated %s\n", e.name.c_str());
  }
  std::printf("%s", harness::render_table({"matrix", "nnz", "SpMM |err|", "SpMM traffic",
                                           "SDDMM |err|", "SDDMM traffic", "verdict"},
                                          rows)
                        .c_str());
  std::printf("\n%s\n", all_ok ? "all strategies agree: the analytic model is faithful to an "
                                 "execution of the kernels"
                               : "VALIDATION FAILED");
  return all_ok ? 0 : 1;
}
