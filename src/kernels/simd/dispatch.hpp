// Runtime kernel dispatch: picks a KernelTable from what was compiled in
// (backends.hpp) and what the CPU supports, with an env override for
// testing and benchmarking.
//
// Environment knob (read once, on first use; reload_env() re-reads):
//   RRSPMM_KERNEL_ISA = scalar | neon | avx2 | avx512 | auto (default)
//
// Every backend computes the same bits (the fused scalar reference,
// kernels/detail/scalar_ref.hpp), so the ISA choice changes speed only.
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

/// Kernel-variant mode of one config (select_kernels). `off` pins the
/// scalar reference that the tests and perfbench compare against.
enum class SpecMode : std::uint8_t {
  off = 1,   ///< generic entries only
  rows = 2,  ///< row-wise substitutions + the micro-GEMM (default)
};

/// Kernel selection carried by callers (ServerConfig, bench drivers).
/// Default-constructed = auto ISA.
struct KernelConfig {
  /// Forced ISA; nullopt picks the best compiled-and-supported backend.
  std::optional<Isa> isa;
  /// Per-matrix AOT specialization record, built at plan-build time and
  /// attached to every plan-driven execution by core::kernel_config.
  /// Null = generic
  /// entries only, exactly the PR 5 behaviour. Shared so the record
  /// lives as long as any config or plan referencing it.
  std::shared_ptr<const SpecializationPlan> spec;
  /// Kernel-variant mode; `off` pins the generic entries.
  SpecMode spec_mode = SpecMode::rows;
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
/// table(cfg) with the variants select_kernels chose substituted in.
/// `specialized` is true when a row-wise substitution replaced at least
/// one generic entry; the micro-GEMM is reported in spmm_panel_dense.
struct KernelSelection {
  Isa isa = Isa::scalar;
  bool specialized = false;
  KernelTable::SpmmRowsFn spmm_rows = nullptr;
  KernelTable::SpmmPanelFn spmm_panel = nullptr;
  KernelTable::SddmmRowsFn sddmm_rows = nullptr;
  KernelTable::SddmmPanelFn sddmm_panel = nullptr;
  /// Non-null when select_kernels picked the dense-tile micro-GEMM: the
  /// ASpT SpMM drivers then use it instead of spmm_panel.
  KernelTable::SpmmPanelDenseFn spmm_panel_dense = nullptr;
};

/// The micro-GEMM rule's bounds (EXPERIMENTS.md, kernel_scaling micro-GEMM
/// rows): it wins on fully dense tiles up to K=32 and loses at K=64, and
/// on plans without fully dense tile rows its fallback loses to the
/// generic panel body.
inline constexpr index_t kMicroGemmKMax = 32;
inline constexpr double kMicroGemmMinFullFraction = 0.5;

/// The one place a kernel variant is chosen. Resolves cfg down the same
/// ladder as table(); then, unless cfg.spec_mode is off and given an
/// enabled spec record:
///  - k <= kMicroGemmKMax and a record dense_full_fraction() of at least
///    kMicroGemmMinFullFraction select the dense-tile micro-GEMM;
///  - a K in kSpecKWidths swaps the row-wise SpMM and SDDMM drivers for
///    the K-width instantiations, and a short-row-heavy plan otherwise
///    swaps the SpMM row driver for the classed (unrolled-short) one;
///    short-row-heavy plans take neither past kShortRowKWidthMax.
/// Otherwise the result is exactly the generic table's entries.
KernelSelection select_kernels(const KernelConfig& cfg, index_t k);

/// Process-wide configuration used by kernel calls that don't carry an
/// explicit KernelConfig. Initialised from the environment on first use.
KernelConfig active_config();
void set_active_config(const KernelConfig& cfg);
/// Re-reads RRSPMM_KERNEL_ISA (tests use this after setenv; the initial
/// read happens once per process otherwise).
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
