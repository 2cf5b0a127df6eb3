#include "kernels/simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string_view>

#include "kernels/simd/backends.hpp"
#include "kernels/simd/specialize.hpp"

namespace rrspmm::kernels::simd {

namespace {

// Active configuration in relaxed atomics (TSan-clean: concurrent kernel
// calls only ever read whole values; there is no invariant across the
// cells). g_isa holds -1 for "auto", else static_cast<int>(Isa).
std::atomic<int> g_isa{-1};
std::atomic<bool> g_fma{false};
std::once_flag g_env_once;

std::atomic<std::uint64_t> g_counts[kIsaCount]{};
std::atomic<std::uint64_t> g_spec_counts[kIsaCount]{};

const KernelTable* tables_for(Isa isa) {
  switch (isa) {
    case Isa::scalar: return scalar_tables();
    case Isa::neon: return neon_tables();
    case Isa::avx2: return avx2_tables();
    case Isa::avx512: return avx512_tables();
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
  bool fma = false;
  if (const char* s = std::getenv("RRSPMM_KERNEL_FMA")) {
    const std::string_view v(s);
    fma = v == "1" || v == "on" || v == "true" || v == "yes";
  }
  g_isa.store(isa ? static_cast<int>(*isa) : -1, std::memory_order_relaxed);
  g_fma.store(fma, std::memory_order_relaxed);
}

void ensure_env_loaded() { std::call_once(g_env_once, load_env); }

}  // namespace

bool isa_compiled(Isa isa) { return tables_for(isa) != nullptr; }

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

const KernelTable& table(const KernelConfig& cfg) {
  const KernelTable* tables = tables_for(resolve_isa(cfg.isa));
  return tables[cfg.allow_fma ? 1 : 0];
}

KernelSelection select_kernels(const KernelConfig& cfg, index_t k) {
  const KernelTable& t = table(cfg);
  KernelSelection sel;
  sel.isa = t.isa;
  sel.fma = t.fma;
  sel.spmm_rows = t.spmm_rows;
  sel.spmm_panel = t.spmm_panel;
  sel.sddmm_rows = t.sddmm_rows;
  sel.sddmm_panel = t.sddmm_panel;
  if (cfg.spec_mode == SpecMode::off || !cfg.spec || !cfg.spec->enabled) return sel;
  // Dense-tile micro-GEMM (router_scaling micro-GEMM rows): dense_full
  // wins at K <= 32 and loses at K=64; short_rows and tiny, with no fully
  // dense tile rows, lose at K=32.
  if (k <= kMicroGemmKMax && cfg.spec->dense_full_fraction() >= kMicroGemmMinFullFraction) {
    sel.spmm_panel_dense = t.spmm_panel_dense;
  }
  const int slot = spec_k_slot(k);
  // K-width substitution is skipped for short-row-heavy plans at large K:
  // the fully K-unrolled row body is front-end bound exactly when rows
  // are tiny (a few percent slower at K=128), so those plans fall
  // through to the runtime-K classed driver below instead.
  const bool kw_profitable = k <= kShortRowKWidthMax || !cfg.spec->wants_short_unroll();
  if (slot >= 0 && kw_profitable && t.spmm_rows_kw[slot] != nullptr) {
    sel.spmm_rows = t.spmm_rows_kw[slot];
    sel.sddmm_rows = t.sddmm_rows_kw[slot];
    sel.specialized = true;
  } else if (cfg.spec->wants_short_unroll() && t.spmm_rows_classed != nullptr) {
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
  cfg.allow_fma = g_fma.load(std::memory_order_relaxed);
  return cfg;
}

void set_active_config(const KernelConfig& cfg) {
  // Complete the one-time env read first so a racing first-use cannot
  // clobber the explicit setting afterwards.
  ensure_env_loaded();
  g_isa.store(cfg.isa ? static_cast<int>(*cfg.isa) : -1, std::memory_order_relaxed);
  g_fma.store(cfg.allow_fma, std::memory_order_relaxed);
}

void reload_env() {
  ensure_env_loaded();
  load_env();
}

void count_invocation(Isa isa) {
  g_counts[static_cast<std::size_t>(isa)].fetch_add(1, std::memory_order_relaxed);
}

std::array<std::uint64_t, kIsaCount> invocation_counts() {
  std::array<std::uint64_t, kIsaCount> out{};
  for (std::size_t i = 0; i < kIsaCount; ++i) {
    out[i] = g_counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

void count_specialized(Isa isa) {
  g_spec_counts[static_cast<std::size_t>(isa)].fetch_add(1, std::memory_order_relaxed);
}

std::array<std::uint64_t, kIsaCount> specialized_counts() {
  std::array<std::uint64_t, kIsaCount> out{};
  for (std::size_t i = 0; i < kIsaCount; ++i) {
    out[i] = g_spec_counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset_invocation_counts() {
  for (auto& c : g_counts) c.store(0, std::memory_order_relaxed);
  for (auto& c : g_spec_counts) c.store(0, std::memory_order_relaxed);
}

}  // namespace rrspmm::kernels::simd
