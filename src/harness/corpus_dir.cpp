#include "harness/corpus_dir.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
#include "sparse/types.hpp"

namespace rrspmm::harness {

namespace fs = std::filesystem;

std::vector<synth::CorpusEntry> load_corpus_dir(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw sparse::io_error("cannot open corpus directory '" + dir + "': " + ec.message());
  }

  std::vector<fs::path> files;
  for (const fs::directory_entry& e : it) {
    const std::string ext = e.path().extension().string();
    if (ext == ".mtx" || ext == ".rrsb") files.push_back(e.path());
  }
  // Directory iteration order is filesystem-dependent; sorting by
  // filename makes the corpus (and every record derived from it)
  // deterministic across runs and machines.
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw sparse::io_error("corpus directory '" + dir + "' has no .mtx or .rrsb files");
  }

  std::vector<synth::CorpusEntry> corpus;
  corpus.reserve(files.size());
  for (const fs::path& p : files) {
    synth::CorpusEntry entry;
    entry.name = p.stem().string();
    entry.family = "external";
    if (p.extension() == ".mtx") {
      entry.matrix = io::read_matrix_market_streamed(p.string());
    } else {
      entry.matrix = io::RrsbReader(p.string()).read();
    }
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

std::string corpus_dir_from_env() {
  const char* dir = std::getenv("RRSPMM_CORPUS_DIR");
  return dir != nullptr ? dir : "";
}

}  // namespace rrspmm::harness
