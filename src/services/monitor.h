// Monitoring APIs (§4.2): buffer_usage() and bw_usage() telemetry sampled
// on an interval — network-health visibility beyond traffic volume.
#pragma once

#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "core/network.h"

namespace oo::services {

class Monitor {
 public:
  Monitor(core::Network& net, SimTime interval);
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void start();

  // Instantaneous queries (Tab. 1).
  std::int64_t buffer_usage(NodeId node) const {
    return net_.tor(node).buffer_bytes();
  }
  std::int64_t peak_buffer(NodeId node) const {
    return net_.tor(node).peak_buffer_bytes();
  }

  // Sampled switch buffer occupancy in bytes, over all nodes.
  const PercentileSampler& all_buffer_samples() const { return all_; }

  // Uplink utilization per node over each interval, as a fraction of the
  // optical line rate (bw_usage() of Tab. 1 as a sampled series).
  const PercentileSampler& utilization_samples(NodeId node) const {
    return utilization_[static_cast<std::size_t>(node)];
  }

  // Network-health counters (§4.1 "monitor network health"): deltas of the
  // switch drop/miss/deferral counters since monitoring began. Fabric drops
  // are also broken out per fault class so robustness studies can tell a
  // dark transceiver (failed) from a degraded one (corrupt) from ordinary
  // schedule misses (no_circuit/guard/boundary).
  struct Health {
    std::int64_t congestion_drops = 0;
    std::int64_t no_route_drops = 0;
    std::int64_t slice_misses = 0;
    std::int64_t deferrals = 0;
    std::int64_t fabric_drops = 0;
    std::int64_t failed_drops = 0;    // loss-of-signal (dark port) drops
    std::int64_t corrupt_drops = 0;   // BER-induced corruption drops
    std::int64_t no_circuit_drops = 0;
    std::int64_t guard_drops = 0;
    std::int64_t boundary_drops = 0;
  };
  Health health() const;

 private:
  core::Network& net_;
  SimTime interval_;
  std::vector<PercentileSampler> utilization_;
  std::vector<std::int64_t> last_tx_bytes_;
  PercentileSampler all_;
  Health baseline_;
  sim::ScopedEventHandle timer_;
  bool started_ = false;
};

}  // namespace oo::services
