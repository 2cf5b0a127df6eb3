// External-corpus loading: point the harness at a directory of real
// matrices instead of the synthetic corpus. Every `.mtx` file is read
// through io::read_matrix_market_streamed and every `.rrsb` file through
// RrsbReader — the two readers of src/io, so the harness exercises them
// rather than a separate code path.
#pragma once

#include <string>
#include <vector>

#include "synth/corpus.hpp"

namespace rrspmm::harness {

/// Loads every `.mtx` and `.rrsb` file directly inside `dir` (no
/// recursion) as a corpus entry named after the file stem, family
/// "external". Entries are ordered by filename, so the corpus — and
/// everything derived from it — is deterministic for a given directory.
/// Unreadable or malformed files surface as the io module's typed
/// errors; other file types are ignored. Throws io_error when `dir`
/// cannot be opened or contains no matrix files.
std::vector<synth::CorpusEntry> load_corpus_dir(const std::string& dir);

/// The directory RRSPMM_CORPUS_DIR names; empty when the knob is unset or
/// empty, and the harness runs the synthetic corpus.
std::string corpus_dir_from_env();

}  // namespace rrspmm::harness
