// Collaborative filtering by alternating least squares with gradient
// descent — the paper's §1 motivating application for SDDMM ("gradient
// descent for solving the Collaborative Filtering problem, where the
// computation of the gradient in each iteration involves an SDDMM").
//
// Matrix-factorisation objective: given sparse ratings R (users x items),
// find U (users x K) and V (items x K) minimising
//   sum_{(u,i) in R} (R[u][i] - <U_u, V_i>)^2.
// Each epoch computes the per-rating predictions <U_u, V_i> — an SDDMM
// with the pattern of R — then the gradient updates
//   U += lr * E * V  and  V += lr * E^T * U — two SpMMs with the error
// matrix E. This is the paper's online amortisation mode: one reordering
// pays for itself across hundreds of iterations.
//
//   ./examples/collaborative_filtering
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/pipeline.hpp"
#include "kernels/sddmm.hpp"
#include "kernels/spmm.hpp"
#include "sparse/permute.hpp"
#include "synth/generators.hpp"

using namespace rrspmm;
using Clock = std::chrono::steady_clock;

namespace {

double rmse(const std::vector<value_t>& err, offset_t nnz) {
  double s = 0.0;
  for (value_t e : err) s += static_cast<double>(e) * e;
  return std::sqrt(s / static_cast<double>(nnz));
}

}  // namespace

int main() {
  // Synthetic ratings: users cluster into taste groups (shared item
  // pools), shuffled so user ids carry no locality — exactly the
  // structure LSH row-reordering recovers.
  synth::ClusteredParams p;
  p.rows = 8192;   // users
  p.cols = 8192;   // items
  p.num_groups = 64;
  p.group_cols = 128;
  p.row_nnz = 24;
  p.noise_nnz = 2;
  p.scatter = true;
  sparse::CsrMatrix ratings = synth::clustered_rows(p, 4242);
  // Rating values in [1, 5].
  for (value_t& v : ratings.values()) v = 3.0f + 2.0f * v;
  std::printf("collaborative filtering: %d users, %d items, %lld ratings\n", ratings.rows(),
              ratings.cols(), static_cast<long long>(ratings.nnz()));

  const index_t k = 32;
  const float lr = 0.01f;
  sparse::DenseMatrix u(ratings.rows(), k), v(ratings.cols(), k);
  sparse::fill_random(u, 10);
  sparse::fill_random(v, 11);

  // One-time reordering (paper §4's online mode: reorder in the first
  // iteration, keep it if faster).
  const auto t0 = Clock::now();
  const auto plan = core::build_plan(ratings, core::PipelineConfig{});
  const auto plan_t = sparse::transpose(ratings);  // for the V update
  const double prep_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("preprocessing: %.2f s (round1=%s round2=%s, dense ratio %.1f%% -> %.1f%%)\n",
              prep_s, plan.stats.round1_applied ? "yes" : "no",
              plan.stats.round2_applied ? "yes" : "no", 100.0 * plan.stats.dense_ratio_before,
              100.0 * plan.stats.dense_ratio_after);

  // SGD epochs. The SDDMM runs through the reordered plan; the SpMM
  // updates use an "error CSR" sharing the ratings pattern.
  sparse::CsrMatrix err_m = ratings;  // pattern reused; values overwritten
  std::vector<value_t> pred(static_cast<std::size_t>(ratings.nnz()));
  const auto t1 = Clock::now();
  const int epochs = 10;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // pred[j] = <U_u, V_i> scaled by 1 (use unit-valued pattern trick):
    // run SDDMM with the ratings values, then divide them back out — or
    // simpler, compute error = rating - prediction directly:
    core::run_sddmm(plan, ratings, v, u, pred.data(), pred.size());  // pred[j] = R_j * <U,V>
    auto& ev = err_m.values();
    const auto& rv = ratings.values();
    for (std::size_t j = 0; j < ev.size(); ++j) {
      const value_t dot = pred[j] / rv[j];  // recover <U_u, V_i>
      ev[j] = rv[j] - dot;                  // residual
    }

    // U += lr * E * V ; V += lr * E^T * U.
    sparse::DenseMatrix grad_u(ratings.rows(), k);
    kernels::spmm_rowwise(err_m, v, grad_u);
    for (index_t i = 0; i < u.rows(); ++i) {
      auto ur = u.row(i);
      const auto gr = grad_u.row(i);
      for (index_t kk = 0; kk < k; ++kk) ur[kk] += lr * gr[kk];
    }
    const sparse::CsrMatrix err_t = sparse::transpose(err_m);
    sparse::DenseMatrix grad_v(ratings.cols(), k);
    kernels::spmm_rowwise(err_t, u, grad_v);
    for (index_t i = 0; i < v.rows(); ++i) {
      auto vr = v.row(i);
      const auto gr = grad_v.row(i);
      for (index_t kk = 0; kk < k; ++kk) vr[kk] += lr * gr[kk];
    }
    std::printf("epoch %2d: rmse %.4f\n", epoch, rmse(err_m.values(), err_m.nnz()));
  }
  const double train_s = std::chrono::duration<double>(Clock::now() - t1).count();
  std::printf("%d epochs in %.2f s on CPU\n", epochs, train_s);
  (void)plan_t;

  // Amortisation story on the device model (paper Tables 3-4): with one
  // SDDMM + two SpMM per epoch, the preprocessing ratio translates to an
  // epoch count after which reordering is pure profit.
  const auto dev = gpusim::DeviceConfig::p100();
  const auto nr = core::build_plan_nr(ratings, core::PipelineConfig{});
  const double epoch_nr = core::simulate_sddmm(nr, k, dev).time_s +
                          2.0 * core::simulate_spmm(nr, k, dev).time_s;
  const double epoch_rr = core::simulate_sddmm(plan, k, dev).time_s +
                          2.0 * core::simulate_spmm(plan, k, dev).time_s;
  std::printf("simulated P100 epoch: %.3f ms (ASpT-NR) vs %.3f ms (ASpT-RR), %.2fx\n",
              epoch_nr * 1e3, epoch_rr * 1e3, epoch_nr / epoch_rr);
  if (epoch_nr > epoch_rr) {
    std::printf("preprocessing (%.2f s) amortises after ~%.0f epochs on the device model\n",
                prep_s, prep_s / (epoch_nr - epoch_rr));
  }
  return 0;
}
