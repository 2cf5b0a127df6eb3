#include "harness/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/fingerprint.hpp"
#include "harness/corpus_dir.hpp"

namespace rrspmm::harness {

namespace {

// v3: the stats line grew the per-phase preprocessing timings and the
// degradation flag. Older caches miss the magic and are recomputed.
constexpr const char* kMagic = "RRSPMM_CACHE v3";

void put_sim(std::ostream& out, const gpusim::SimResult& r) {
  out << r.dram_bytes << ' ' << r.flops << ' ' << r.time_s << ' ' << r.x_accesses << ' '
      << r.x_l2_hits << ' ' << r.shared_hits << ' ' << r.kernels_launched;
}

bool get_sim(std::istream& in, gpusim::SimResult& r) {
  return static_cast<bool>(in >> r.dram_bytes >> r.flops >> r.time_s >> r.x_accesses >>
                           r.x_l2_hits >> r.shared_hits >> r.kernels_launched);
}

void put_triple(std::ostream& out, const KernelTriple& t) {
  out << t.k << ' ';
  put_sim(out, t.rowwise);
  out << ' ';
  put_sim(out, t.aspt_nr);
  out << ' ';
  put_sim(out, t.aspt_rr);
  out << '\n';
}

bool get_triple(std::istream& in, KernelTriple& t) {
  return (in >> t.k) && get_sim(in, t.rowwise) && get_sim(in, t.aspt_nr) &&
         get_sim(in, t.aspt_rr);
}

/// Every ExperimentConfig field that influences the records.
std::string config_fingerprint(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << '|' << core::pipeline_fingerprint(cfg.pipeline);
  os << '|' << core::device_fingerprint(cfg.device);
  os << "|ks:";
  for (index_t k : cfg.ks) os << k << ',';
  os << "|sddmm:" << cfg.run_sddmm << "|model:3";
  return os.str();
}

}  // namespace

std::string experiment_fingerprint(const synth::CorpusConfig& corpus,
                                   const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << "corpus:" << corpus.count << ',' << corpus.scale << ',' << corpus.seed;
  return os.str() + config_fingerprint(cfg);
}

std::string experiment_fingerprint(const std::vector<synth::CorpusEntry>& corpus,
                                   const ExperimentConfig& cfg) {
  std::string fp = "dir:";
  for (const synth::CorpusEntry& e : corpus) {
    fp += e.name + '=' + core::matrix_fingerprint(e.matrix) + ',';
  }
  return fp + config_fingerprint(cfg);
}

void save_records(const std::string& path, const std::string& fingerprint,
                  const std::vector<MatrixRecord>& records) {
  std::ofstream f(path);
  if (!f) return;  // cache is best-effort
  f.precision(17);
  f << kMagic << '\n' << fingerprint << '\n' << records.size() << '\n';
  for (const MatrixRecord& r : records) {
    f << r.name << ' ' << r.family << '\n';
    f << r.mstats.rows << ' ' << r.mstats.cols << ' ' << r.mstats.nnz << ' '
      << r.mstats.avg_row_nnz << ' ' << r.mstats.max_row_nnz << ' ' << r.mstats.empty_rows << ' '
      << r.mstats.avg_consecutive_jaccard << '\n';
    const auto& s = r.rr;
    f << s.dense_ratio_before << ' ' << s.dense_ratio_after << ' ' << s.avg_sim_before << ' '
      << s.avg_sim_after << ' ' << s.round1_applied << ' ' << s.round2_applied << ' '
      << s.round1_candidates << ' ' << s.round2_candidates << ' ' << s.round1_clusters << ' '
      << s.round2_clusters << ' ' << s.preprocess_seconds << ' ' << r.nr_preprocess_seconds << ' '
      << s.sig_ms << ' ' << s.band_ms << ' ' << s.score_ms << ' ' << s.merge_ms << ' '
      << s.preproc_degraded << '\n';
    f << r.spmm.size() << ' ' << r.sddmm.size() << '\n';
    for (const auto& t : r.spmm) put_triple(f, t);
    for (const auto& t : r.sddmm) put_triple(f, t);
  }
}

std::optional<std::vector<MatrixRecord>> load_records(const std::string& path,
                                                      const std::string& fingerprint) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::string magic, stored_fp;
  if (!std::getline(f, magic) || magic != kMagic) return std::nullopt;
  if (!std::getline(f, stored_fp) || stored_fp != fingerprint) return std::nullopt;
  std::size_t n = 0;
  if (!(f >> n)) return std::nullopt;

  std::vector<MatrixRecord> records(n);
  for (MatrixRecord& r : records) {
    if (!(f >> r.name >> r.family)) return std::nullopt;
    if (!(f >> r.mstats.rows >> r.mstats.cols >> r.mstats.nnz >> r.mstats.avg_row_nnz >>
          r.mstats.max_row_nnz >> r.mstats.empty_rows >> r.mstats.avg_consecutive_jaccard)) {
      return std::nullopt;
    }
    auto& s = r.rr;
    if (!(f >> s.dense_ratio_before >> s.dense_ratio_after >> s.avg_sim_before >>
          s.avg_sim_after >> s.round1_applied >> s.round2_applied >> s.round1_candidates >>
          s.round2_candidates >> s.round1_clusters >> s.round2_clusters >>
          s.preprocess_seconds >> r.nr_preprocess_seconds >> s.sig_ms >> s.band_ms >>
          s.score_ms >> s.merge_ms >> s.preproc_degraded)) {
      return std::nullopt;
    }
    std::size_t nspmm = 0, nsddmm = 0;
    if (!(f >> nspmm >> nsddmm)) return std::nullopt;
    r.spmm.resize(nspmm);
    r.sddmm.resize(nsddmm);
    for (auto& t : r.spmm) {
      if (!get_triple(f, t)) return std::nullopt;
    }
    for (auto& t : r.sddmm) {
      if (!get_triple(f, t)) return std::nullopt;
    }
  }
  return records;
}

std::vector<MatrixRecord> cached_default_experiment(const ExperimentConfig& cfg) {
  // An external corpus is loaded once: its matrices key the cache and,
  // on a miss, feed the experiment.
  const std::string dir = corpus_dir_from_env();
  std::vector<synth::CorpusEntry> external;
  if (!dir.empty()) {
    external = load_corpus_dir(dir);
    if (cfg.verbose) {
      std::fprintf(stderr, "corpus: %zu external matrices from %s\n", external.size(),
                   dir.c_str());
    }
  }
  const std::string fp = dir.empty()
                             ? experiment_fingerprint(synth::corpus_config_from_env(), cfg)
                             : experiment_fingerprint(external, cfg);
  const char* tmp = std::getenv("TMPDIR");
  const std::string path = std::string(tmp ? tmp : "/tmp") + "/rrspmm_cache_" +
                           std::to_string(core::fnv1a(fp)) + ".txt";

  const bool no_cache = std::getenv("RRSPMM_NO_CACHE") != nullptr;
  if (!no_cache) {
    if (auto cached = load_records(path, fp)) {
      if (cfg.verbose) {
        std::fprintf(stderr, "loaded %zu cached records from %s\n", cached->size(), path.c_str());
      }
      return *cached;
    }
  }
  auto records = dir.empty() ? run_default_experiment(cfg) : run_experiment(external, cfg);
  if (!no_cache) save_records(path, fp, records);
  return records;
}

}  // namespace rrspmm::harness
