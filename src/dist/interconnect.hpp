// Device-interconnect model.
//
// The single-device simulator (gpusim) argues entirely in bytes moved;
// multi-device execution adds a second byte ledger — dense operands
// scattered to devices, result shards gathered back — and this model
// charges for it the same way gpusim charges for DRAM: latency + bytes /
// bandwidth per transfer, composed per collective. Two presets bracket
// real hardware: an NVLink-like mesh (every device reachable
// point-to-point, transfers to distinct devices proceed concurrently)
// and a PCIe-like tree (the root drives a limited number of links at a
// time, so collectives serialise into rounds).
#pragma once

#include <vector>

namespace rrspmm::dist {

struct InterconnectConfig {
  /// Per-direction point-to-point link bandwidth, GB/s.
  double link_gbps = 50.0;
  /// Fixed per-transfer setup latency (software + wire), seconds.
  double latency_s = 1.5e-6;
  /// Concurrent transfers the collective root can drive. 0 means
  /// unlimited (switched mesh: every device has its own link to the
  /// root); k > 0 serialises an n-device collective into ceil(n/k)
  /// rounds sharing k links.
  int root_fanout = 0;

  /// NVLink-like switched mesh (V100-class: 50 GB/s per direction).
  static InterconnectConfig nvlink() { return InterconnectConfig{}; }

  /// PCIe 3.0 x16 behind a host root complex: 12 GB/s, higher latency,
  /// two transfers in flight at the root.
  static InterconnectConfig pcie() {
    InterconnectConfig cfg;
    cfg.link_gbps = 12.0;
    cfg.latency_s = 5e-6;
    cfg.root_fanout = 2;
    return cfg;
  }
};

/// Time model for the two collectives sharded SpMM needs. All methods
/// are pure functions of the config; zero-byte, zero-device collectives
/// cost nothing.
class Interconnect {
 public:
  explicit Interconnect(InterconnectConfig cfg = {}) : cfg_(cfg) {}

  const InterconnectConfig& config() const { return cfg_; }

  /// One point-to-point transfer.
  double p2p_time(double bytes) const;

  /// Root sends a distinct payload to each device (X shards out: the
  /// per-device slices of the dense operand).
  double scatter_time(const std::vector<double>& per_device_bytes) const;

  /// Root collects a distinct payload from each device (Y shards in).
  double gather_time(const std::vector<double>& per_device_bytes) const;

 private:
  double rounds_time(double total_bytes, double max_bytes, int n_transfers) const;

  InterconnectConfig cfg_;
};

}  // namespace rrspmm::dist
