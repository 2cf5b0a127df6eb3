// External-corpus loading: point the harness at a directory of real
// matrices instead of the synthetic corpus. Every `.mtx` file is
// ingested through the streaming Matrix Market reader (so a matrix
// larger than memory still loads under the builder's budget) and every
// `.rrsb` shard file is materialised through RrsbReader — the two ingest
// paths of src/io, which keeps the harness an end-to-end exercise of
// them rather than a separate code path.
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

}  // namespace rrspmm::harness
