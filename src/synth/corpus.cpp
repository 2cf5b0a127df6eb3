#include "synth/corpus.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "synth/generators.hpp"
#include "synth/rng.hpp"

namespace rrspmm::synth {

namespace {

std::string two_digits(int i) {
  std::string s = std::to_string(i);
  if (i < 10) s.insert(0, 1, '0');
  return s;
}

index_t scaled(double scale, index_t base) {
  const double v = static_cast<double>(base) * scale;
  return v < 64 ? index_t{64} : checked_index(static_cast<std::int64_t>(v));
}

offset_t scaled_nnz(double scale, offset_t base) {
  const double v = static_cast<double>(base) * scale;
  return v < 256 ? offset_t{256} : static_cast<offset_t>(v);
}

}  // namespace

CorpusConfig corpus_config_from_env() {
  CorpusConfig cfg;
  if (const char* n = std::getenv("RRSPMM_CORPUS_N")) cfg.count = std::atoi(n);
  if (const char* s = std::getenv("RRSPMM_SCALE")) cfg.scale = std::atof(s);
  if (const char* s = std::getenv("RRSPMM_SEED")) cfg.seed = static_cast<std::uint64_t>(std::atoll(s));
  if (cfg.count < 1) cfg.count = 1;
  if (cfg.scale <= 0.0) cfg.scale = 1.0;
  return cfg;
}

std::vector<CorpusEntry> build_corpus(const CorpusConfig& cfg) {
  std::vector<CorpusEntry> corpus;
  corpus.reserve(static_cast<std::size_t>(cfg.count));

  // Family cycle. Index-dependent parameter jitter makes every instance
  // distinct even within a family.
  int i = 0;
  while (static_cast<int>(corpus.size()) < cfg.count) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(i) * 7919ULL;
    const int variant = i / 10;  // grows matrices as the corpus grows
    const double grow = 1.0 + 0.2 * variant;
    const double s = cfg.scale * grow;
    switch (i % 14) {
      case 0: {  // scattered clustered — the paper's motivating population
        ClusteredParams p;
        p.rows = scaled(s, 10240);
        p.cols = scaled(s, 10240);
        p.num_groups = static_cast<index_t>(48 + 16 * (variant % 5));
        p.group_cols = static_cast<index_t>(96 + 24 * (variant % 4));
        p.row_nnz = static_cast<index_t>(16 + 4 * (variant % 4));
        p.noise_nnz = static_cast<index_t>(variant % 3);
        p.scatter = true;
        corpus.push_back({"clustered_scatter_" + two_digits(i), "clustered_scatter",
                          clustered_rows(p, seed)});
        break;
      }
      case 1: {  // shuffled banded — latent band structure, hidden order
        const index_t n = scaled(s, 12288);
        corpus.push_back({"banded_shuffled_" + two_digits(i), "banded_shuffled",
                          shuffle_rows(banded(n, static_cast<index_t>(6 + variant % 6),
                                              0.6 + 0.05 * (variant % 4), seed),
                                       seed ^ 0xABCDULL)});
        break;
      }
      case 2: {  // well-clustered (contiguous groups) — Fig 7a regime
        ClusteredParams p;
        p.rows = scaled(s, 10240);
        p.cols = scaled(s, 10240);
        p.num_groups = static_cast<index_t>(64 + 16 * (variant % 4));
        p.group_cols = static_cast<index_t>(72 + 12 * (variant % 4));
        p.row_nnz = static_cast<index_t>(20 + 2 * (variant % 5));
        p.noise_nnz = 0;
        p.scatter = false;
        corpus.push_back({"clustered_contig_" + two_digits(i), "clustered_contig",
                          clustered_rows(p, seed)});
        break;
      }
      case 3: {  // banded in natural order — also well clustered
        const index_t n = scaled(s, 12288);
        corpus.push_back({"banded_" + two_digits(i), "banded",
                          banded(n, static_cast<index_t>(8 + variant % 8),
                                 0.55 + 0.05 * (variant % 5), seed)});
        break;
      }
      case 4: {  // RMAT power-law graph
        const index_t sc = static_cast<index_t>(14 + (variant % 2));
        const offset_t nnz =
            scaled_nnz(cfg.scale * grow, static_cast<offset_t>(16) * (offset_t{1} << sc));
        corpus.push_back({"rmat_" + two_digits(i), "rmat", rmat(sc, nnz, seed)});
        break;
      }
      case 5: {  // Chung–Lu power-law
        const index_t n = scaled(s, 12288);
        corpus.push_back({"chung_lu_" + two_digits(i), "chung_lu",
                          chung_lu(n, n, 14.0 + 2.0 * (variant % 4),
                                   2.1 + 0.2 * (variant % 4), seed)});
        break;
      }
      case 6: {  // Erdős–Rényi — scattered, unclusterable
        const index_t n = scaled(s, 12288);
        corpus.push_back({"erdos_renyi_" + two_digits(i), "erdos_renyi",
                          erdos_renyi(n, n, static_cast<offset_t>(n) * (10 + variant % 6), seed)});
        break;
      }
      case 7: {  // scattered clustered with more noise
        ClusteredParams p;
        p.rows = scaled(s, 8192);
        p.cols = scaled(s, 12288);
        p.num_groups = static_cast<index_t>(32 + 16 * (variant % 4));
        p.group_cols = static_cast<index_t>(128 + 32 * (variant % 3));
        p.row_nnz = static_cast<index_t>(24 + 4 * (variant % 3));
        p.noise_nnz = static_cast<index_t>(2 + variant % 4);
        p.scatter = true;
        corpus.push_back({"clustered_noisy_" + two_digits(i), "clustered_noisy",
                          clustered_rows(p, seed)});
        break;
      }
      case 8: {  // weakly clustered — partial reuse only (the paper's
                 // mid-bucket population: 10-50% speedups)
        ClusteredParams p;
        p.rows = scaled(s, 10240);
        p.cols = scaled(s, 12288);
        p.num_groups = static_cast<index_t>(96 + 32 * (variant % 3));
        p.group_cols = static_cast<index_t>(40 + 8 * (variant % 3));
        p.row_nnz = static_cast<index_t>(12 + 2 * (variant % 3));
        p.noise_nnz = static_cast<index_t>(8 + 2 * (variant % 3));
        p.scatter = true;
        corpus.push_back({"clustered_weak_" + two_digits(i), "clustered_weak",
                          clustered_rows(p, seed)});
        break;
      }
      case 9: {  // medium clusters: groups visible but diluted by noise
        ClusteredParams p;
        p.rows = scaled(s, 10240);
        p.cols = scaled(s, 10240);
        p.num_groups = static_cast<index_t>(128 + 32 * (variant % 3));
        p.group_cols = static_cast<index_t>(64 + 8 * (variant % 4));
        p.row_nnz = static_cast<index_t>(16 + 2 * (variant % 3));
        p.noise_nnz = static_cast<index_t>(4 + variant % 4);
        p.scatter = true;
        corpus.push_back({"clustered_medium_" + two_digits(i), "clustered_medium",
                          clustered_rows(p, seed)});
        break;
      }
      case 10: {  // graph adjacency destined for squaring (A·A): square,
                  // disjoint per-group column blocks, scattered row order
                  // — the SpGEMM effectiveness family
        ClusteredParams p;
        p.rows = scaled(s, 10240);
        p.cols = p.rows;
        p.num_groups = static_cast<index_t>(48 + 16 * (variant % 4));
        p.group_cols = static_cast<index_t>(p.cols / p.num_groups);
        p.row_nnz = static_cast<index_t>(14 + 2 * (variant % 4));
        p.noise_nnz = static_cast<index_t>(variant % 2);
        p.scatter = true;
        p.disjoint_pools = true;
        corpus.push_back({"adj_square_" + two_digits(i), "adj_square",
                          clustered_rows(p, seed)});
        break;
      }
      case 11: {  // sampled GNN frontier: community blocks + global hubs.
                  // Block width ~40-48 columns at fanout 16-22 keeps
                  // intra-community Jaccard high enough for the LSH
                  // rounds to recover the communities.
        GnnFrontierParams p;
        p.nodes = scaled(s, 12288);
        p.communities = static_cast<index_t>(p.nodes / (40 + 4 * (variant % 3)));
        p.fanout = static_cast<index_t>(16 + 2 * (variant % 4));
        p.hub_cols = static_cast<index_t>(16 + 8 * (variant % 3));
        p.hub_prob = 0.1 + 0.05 * (variant % 3);
        corpus.push_back({"gnn_frontier_" + two_digits(i), "gnn_frontier",
                          gnn_frontier(p, seed)});
        break;
      }
      case 12: {  // tall-skinny scRNA-like expression matrix: cells >>
                  // genes, scattered cell types, housekeeping hubs. Pool
                  // sizes derive from the actual gene count so the family
                  // stays well-formed at any corpus scale.
        ScrnaParams p;
        p.cells = scaled(s, 24576);
        p.genes = scaled(s, 2048);
        p.cell_types = static_cast<index_t>(12 + 4 * (variant % 3));
        p.housekeeping = std::max<index_t>(4, p.genes / 42);
        p.markers_per_type = std::max<index_t>(8, p.genes / 21);
        p.expr_per_cell = std::max<index_t>(8, p.genes / 64);
        p.housekeeping_prob = 0.25 + 0.05 * (variant % 3);
        corpus.push_back({"scrna_cells_" + two_digits(i), "scrna_cells",
                          scrna_cells(p, seed)});
        break;
      }
      case 13: {  // DLMC-like magnitude-pruned weights: unstructured,
                  // column-popularity skew only
        DlmcParams p;
        p.rows = scaled(s, 6144);
        p.cols = scaled(s, 2048);
        p.density = 0.012 + 0.004 * (variant % 3);
        p.skew = 2.0 + 0.5 * (variant % 3);
        corpus.push_back({"dlmc_pruned_" + two_digits(i), "dlmc_pruned",
                          dlmc_pruned(p, seed)});
        break;
      }
      default: break;
    }
    ++i;
  }
  return corpus;
}

std::vector<CorpusEntry> build_test_corpus() {
  std::vector<CorpusEntry> corpus;
  ClusteredParams scat;
  scat.rows = 512;
  scat.cols = 512;
  scat.num_groups = 16;
  scat.group_cols = 32;
  scat.row_nnz = 10;
  scat.noise_nnz = 1;
  scat.scatter = true;
  corpus.push_back({"t_clustered_scatter", "clustered_scatter", clustered_rows(scat, 11)});

  ClusteredParams contig = scat;
  contig.scatter = false;
  contig.noise_nnz = 0;
  corpus.push_back({"t_clustered_contig", "clustered_contig", clustered_rows(contig, 12)});

  corpus.push_back({"t_banded", "banded", banded(512, 5, 0.7, 13)});
  corpus.push_back({"t_banded_shuffled", "banded_shuffled",
                    shuffle_rows(banded(512, 5, 0.7, 14), 15)});
  corpus.push_back({"t_er", "erdos_renyi", erdos_renyi(512, 512, 4096, 16)});
  corpus.push_back({"t_rmat", "rmat", rmat(9, 8192, 17)});
  corpus.push_back({"t_chung_lu", "chung_lu", chung_lu(512, 512, 12.0, 2.3, 18)});
  corpus.push_back({"t_diagonal", "diagonal", diagonal(512)});

  ClusteredParams adj = scat;
  adj.noise_nnz = 0;
  adj.disjoint_pools = true;  // 16 groups * 32 cols == 512: exact blocks
  corpus.push_back({"t_adj_square", "adj_square", clustered_rows(adj, 19)});

  GnnFrontierParams gnn;
  gnn.nodes = 512;
  gnn.communities = 16;
  gnn.fanout = 8;
  gnn.hub_cols = 8;
  gnn.hub_prob = 0.2;
  corpus.push_back({"t_gnn_frontier", "gnn_frontier", gnn_frontier(gnn, 20)});

  // Every test-corpus matrix has 512 rows (asserted by the integration
  // suite); scrna stays tall-skinny via the narrow gene dimension.
  ScrnaParams scrna;
  scrna.cells = 512;
  scrna.genes = 128;
  scrna.cell_types = 8;
  scrna.markers_per_type = 24;
  scrna.housekeeping = 8;
  scrna.expr_per_cell = 10;
  corpus.push_back({"t_scrna", "scrna_cells", scrna_cells(scrna, 21)});

  DlmcParams dlmc;
  dlmc.rows = 512;
  dlmc.cols = 256;
  dlmc.density = 0.04;
  corpus.push_back({"t_dlmc", "dlmc_pruned", dlmc_pruned(dlmc, 22)});
  return corpus;
}

}  // namespace rrspmm::synth
