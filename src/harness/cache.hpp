// On-disk cache of experiment results.
//
// Every table/figure bench binary consumes the same corpus experiment.
// Re-running LSH + clustering + tiling + simulation for each of the ~12
// bench binaries would multiply a minutes-long computation by 12, so the
// first binary persists the records and the rest reload them. The cache
// key is a fingerprint of every parameter that influences the records
// (corpus config or external matrices, pipeline config, device model,
// K list); any change invalidates it. Set RRSPMM_NO_CACHE=1 to force
// recomputation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace rrspmm::harness {

/// Fingerprint of an experiment setup (stable across runs).
std::string experiment_fingerprint(const synth::CorpusConfig& corpus,
                                   const ExperimentConfig& cfg);

/// As above for an external corpus (RRSPMM_CORPUS_DIR), keyed on each
/// entry's name and core::matrix_fingerprint.
std::string experiment_fingerprint(const std::vector<synth::CorpusEntry>& corpus,
                                   const ExperimentConfig& cfg);

/// Serialises records to `path`.
void save_records(const std::string& path, const std::string& fingerprint,
                  const std::vector<MatrixRecord>& records);

/// Loads records from `path` if the stored fingerprint matches; empty
/// optional on mismatch, missing file, or parse error.
std::optional<std::vector<MatrixRecord>> load_records(const std::string& path,
                                                      const std::string& fingerprint);

/// The shared entry point for bench binaries: corpus from env (the
/// RRSPMM_CORPUS_DIR files, else the synthetic corpus config), cache
/// under $TMPDIR, recompute on miss.
std::vector<MatrixRecord> cached_default_experiment(const ExperimentConfig& cfg = {});

}  // namespace rrspmm::harness
