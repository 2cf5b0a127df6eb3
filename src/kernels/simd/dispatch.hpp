// Runtime kernel dispatch: picks a KernelTable from what was compiled in
// (backends.hpp) and what the CPU supports, with an env override for
// testing and benchmarking.
//
// Environment knobs (read once, on first use; reload_env() re-reads):
//   RRSPMM_KERNEL_ISA        = scalar | neon | avx2 | avx512 | auto (default)
//   RRSPMM_KERNEL_FMA        = 1 | on | true | yes  (default off)
//   RRSPMM_KERNEL_SPECIALIZE = 0 | off | false | no disables the AOT
//                              plan-specialized entries; "all" also
//                              substitutes the dense-panel K-width
//                              entries (default on: row-wise only)
//
// A requested ISA that is not compiled in or not supported by the CPU
// degrades down the ladder (avx512 -> avx2 -> neon -> scalar) instead of
// failing, so a forced configuration is always runnable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "kernels/simd/isa.hpp"
#include "kernels/simd/table.hpp"

namespace rrspmm::kernels::simd {

struct SpecializationPlan;  // specialize.hpp

/// Per-call override of the RRSPMM_KERNEL_SPECIALIZE knob. `env` (the
/// default) defers to the environment; the other values pin the mode
/// for this config regardless of the env, which is how the router
/// expresses a per-plan decision without touching process state.
enum class SpecMode : std::uint8_t {
  env = 0,   ///< follow RRSPMM_KERNEL_SPECIALIZE (default)
  off = 1,   ///< generic entries only
  rows = 2,  ///< row-wise substitutions (the env default)
  all = 3,   ///< rows + dense-panel K-width entries
};

/// Kernel selection carried by callers (ServerConfig, ShardedExecutor,
/// bench drivers). Default-constructed = auto ISA, bitwise math.
struct KernelConfig {
  /// Forced ISA; nullopt picks the best compiled-and-supported backend.
  std::optional<Isa> isa;
  /// Opt into the fused-multiply-add fast path. Off by default: the
  /// default path is bitwise-identical to the scalar reference, the fma
  /// path only ULP-close (see docs/API.md).
  bool allow_fma = false;
  /// Per-matrix AOT specialization record, built at plan-build time and
  /// attached to every plan-driven execution by core::kernel_config.
  /// Null = generic
  /// entries only, exactly the PR 5 behaviour. Shared so the record
  /// lives as long as any config or plan referencing it.
  std::shared_ptr<const SpecializationPlan> spec;
  /// Specialization-mode override; SpecMode::env defers to the
  /// RRSPMM_KERNEL_SPECIALIZE knob. Set by the router per decision.
  SpecMode spec_mode = SpecMode::env;
  /// Route the ASpT dense-tile phase through the register-blocked
  /// micro-GEMM entry (spmm_panel_dense): fully dense tile rows are
  /// paired against shared staged loads, partial rows fall back to the
  /// generic panel body. Bitwise-identical on the non-fma path; off by
  /// default because it only pays when most tile rows are fully dense —
  /// the router turns it on when the plan's dense_full_rows fraction
  /// clears its calibrated threshold.
  bool micro_gemm = false;
};

/// Whether the backend was compiled into this binary.
bool isa_compiled(Isa isa);
/// isa_compiled && the running CPU has the features.
bool isa_supported(Isa isa);

/// Resolves a requested (or auto) ISA down the availability ladder;
/// always returns something runnable (worst case Isa::scalar).
Isa resolve_isa(std::optional<Isa> requested);

/// The kernel table for a configuration. The returned table's `isa` is
/// the resolved one, which may differ from cfg.isa (fallback).
const KernelTable& table(const KernelConfig& cfg);

/// Per-call resolved entry points: the generic table entries of
/// table(cfg) with any specializations the plan and K admit substituted
/// in — a K in kSpecKWidths swaps all six entries for the K-width
/// instantiations; otherwise a short-row-heavy plan swaps the SpMM row
/// driver for the classed (unrolled-short) one. `specialized` is true
/// when at least one entry differs from the generic table.
struct KernelSelection {
  Isa isa = Isa::scalar;
  bool fma = false;
  bool specialized = false;
  KernelTable::SpmmRowsFn spmm_rows = nullptr;
  KernelTable::SpmmPanelFn spmm_panel = nullptr;
  KernelTable::SddmmRowsFn sddmm_rows = nullptr;
  KernelTable::SddmmPanelFn sddmm_panel = nullptr;
  /// Non-null only under KernelConfig::micro_gemm: the dense-tile
  /// micro-GEMM entry the ASpT SpMM drivers prefer over spmm_panel.
  KernelTable::SpmmPanelDenseFn spmm_panel_dense = nullptr;
};

/// Resolves cfg down the same ladder as table() and applies the
/// specialization selection for operand width `k`. With no spec record,
/// a disabled record, or RRSPMM_KERNEL_SPECIALIZE off, the result is
/// exactly the generic table's entries.
KernelSelection select_kernels(const KernelConfig& cfg, index_t k);

/// The RRSPMM_KERNEL_SPECIALIZE env knob (default on); reload_env()
/// re-reads it.
bool specialization_enabled();
/// True only under RRSPMM_KERNEL_SPECIALIZE=all: select_kernels also
/// substitutes the dense-panel K-width entries (neutral-to-negative on
/// hosts measured so far, hence opt-in; see kSpecPanelKMax).
bool specialization_panels_enabled();

/// Process-wide configuration used by kernel calls that don't carry an
/// explicit KernelConfig. Initialised from the environment on first use.
KernelConfig active_config();
void set_active_config(const KernelConfig& cfg);
/// Re-reads RRSPMM_KERNEL_ISA / RRSPMM_KERNEL_FMA (tests use this after
/// setenv; the initial read happens once per process otherwise).
void reload_env();

/// Per-ISA invocation counters (one public kernel call = one count for
/// the resolved ISA). Exposed through runtime::Metrics as well.
void count_invocation(Isa isa);
std::array<std::uint64_t, kIsaCount> invocation_counts();
/// Per-ISA specialized-call counters: one public kernel call whose
/// selection substituted at least one specialized entry = one count.
void count_specialized(Isa isa);
std::array<std::uint64_t, kIsaCount> specialized_counts();
/// Resets both the invocation and the specialized counters.
void reset_invocation_counts();

}  // namespace rrspmm::kernels::simd
