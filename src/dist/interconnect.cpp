#include "dist/interconnect.hpp"

#include <algorithm>

namespace rrspmm::dist {

double Interconnect::p2p_time(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  return cfg_.latency_s + bytes / (cfg_.link_gbps * 1e9);
}

// Shared shape of scatter/gather: with an unlimited-fanout root every
// transfer rides its own link concurrently, so the collective finishes
// with its largest payload; with fanout k the n transfers serialise into
// ceil(n/k) rounds that pay one latency each and share k links' worth of
// bandwidth for the total payload.
double Interconnect::rounds_time(double total_bytes, double max_bytes, int n_transfers) const {
  if (n_transfers <= 0 || total_bytes <= 0.0) return 0.0;
  const double bw = cfg_.link_gbps * 1e9;
  if (cfg_.root_fanout <= 0) {
    return cfg_.latency_s + max_bytes / bw;
  }
  const int rounds = (n_transfers + cfg_.root_fanout - 1) / cfg_.root_fanout;
  return rounds * cfg_.latency_s + total_bytes / (cfg_.root_fanout * bw);
}

double Interconnect::scatter_time(const std::vector<double>& per_device_bytes) const {
  double total = 0.0;
  double biggest = 0.0;
  int transfers = 0;
  for (double b : per_device_bytes) {
    if (b <= 0.0) continue;
    total += b;
    biggest = std::max(biggest, b);
    ++transfers;
  }
  return rounds_time(total, biggest, transfers);
}

double Interconnect::gather_time(const std::vector<double>& per_device_bytes) const {
  return scatter_time(per_device_bytes);  // symmetric: same links, reversed direction
}

}  // namespace rrspmm::dist
