#include "kernels/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "kernels/simd/backends.hpp"

namespace rrspmm::kernels::simd {

namespace {

// Active configuration in a relaxed atomic (TSan-clean: concurrent
// kernel calls only ever read the whole value). g_isa holds -1 for
// "auto", else static_cast<int>(Isa).
std::atomic<int> g_isa{-1};
std::once_flag g_env_once;

const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::scalar: return scalar_table();
    case Isa::neon: return neon_table();
    case Isa::avx2: return avx2_table();
    case Isa::avx512: return avx512_table();
  }
  return nullptr;
}

bool cpu_supports(Isa isa) {
  switch (isa) {
    case Isa::scalar:
      return true;
    case Isa::neon:
#if defined(__ARM_NEON)
      return true;  // NEON is baseline on aarch64
#else
      return false;
#endif
    case Isa::avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::avx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

void load_env() {
  std::optional<Isa> isa;
  if (const char* s = std::getenv("RRSPMM_KERNEL_ISA")) isa = parse_isa(s);
  g_isa.store(isa ? static_cast<int>(*isa) : -1, std::memory_order_relaxed);
}

void ensure_env_loaded() { std::call_once(g_env_once, load_env); }

}  // namespace

bool isa_compiled(Isa isa) { return table_for(isa) != nullptr; }

bool isa_supported(Isa isa) { return isa_compiled(isa) && cpu_supports(isa); }

Isa resolve_isa(std::optional<Isa> requested) {
  static constexpr Isa kLadder[] = {Isa::avx512, Isa::avx2, Isa::neon, Isa::scalar};
  bool reached = !requested.has_value();
  for (const Isa isa : kLadder) {
    if (!reached) {
      if (isa != *requested) continue;
      reached = true;
    }
    if (isa_supported(isa)) return isa;
  }
  return Isa::scalar;
}

const KernelTable& table(const KernelConfig& cfg) { return *table_for(resolve_isa(cfg.isa)); }

KernelSelection select_kernels(const KernelConfig& cfg, index_t k) {
  const KernelTable& t = table(cfg);
  KernelSelection sel;
  sel.isa = t.isa;
  sel.spmm_rows = t.spmm_rows;
  sel.spmm_panel = t.spmm_panel;
  sel.sddmm_rows = t.sddmm_rows;
  sel.sddmm_panel = t.sddmm_panel;
  if (cfg.spec_mode == SpecMode::off || !cfg.spec) return sel;
  // Dense-tile micro-GEMM (kernel_scaling micro-GEMM rows): dense_full
  // wins at K <= 32 and loses at K=64; short_rows and tiny, with no fully
  // dense tile rows, lose at K=32.
  if (k <= kMicroGemmKMax && cfg.spec->dense_full_fraction() >= kMicroGemmMinFullFraction) {
    sel.spmm_panel_dense = t.spmm_panel_dense;
  }
  // Plans with short rows keep the generic row drivers past
  // kShortRowKWidthMax (kernel_scaling short_rows/spmm_rowwise, k=128):
  // the fully K-unrolled body is front-end bound on tiny rows, and the
  // classed driver read 0.97-1.02x over generic in 5 runs, so neither
  // pays there. One short row is enough to trip this guard.
  const bool short_rows = cfg.spec->has_short_rows();
  if (short_rows && k > kShortRowKWidthMax) return sel;
  const int slot = spec_k_slot(k);
  if (slot >= 0 && t.spmm_rows_kw[slot] != nullptr) {
    sel.spmm_rows = t.spmm_rows_kw[slot];
    sel.sddmm_rows = t.sddmm_rows_kw[slot];
    sel.specialized = true;
  } else if (short_rows && t.spmm_rows_classed != nullptr) {
    sel.spmm_rows = t.spmm_rows_classed;
    sel.specialized = true;
  }
  return sel;
}

KernelConfig active_config() {
  ensure_env_loaded();
  KernelConfig cfg;
  const int isa = g_isa.load(std::memory_order_relaxed);
  if (isa >= 0) cfg.isa = static_cast<Isa>(isa);
  return cfg;
}

void set_active_config(const KernelConfig& cfg) {
  // Complete the one-time env read first so a racing first-use cannot
  // clobber the explicit setting afterwards.
  ensure_env_loaded();
  g_isa.store(cfg.isa ? static_cast<int>(*cfg.isa) : -1, std::memory_order_relaxed);
}

void reload_env() {
  ensure_env_loaded();
  load_env();
}

}  // namespace rrspmm::kernels::simd
