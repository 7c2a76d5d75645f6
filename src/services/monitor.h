// Monitoring APIs (§4.2): buffer_usage() and bw_usage() telemetry sampled
// on an interval. Drop and slice-miss counters are the metrics registry's
// fabric.* and tor.* cells (and Network::totals()); deferrals are
// TorSwitch::deferrals().
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

 private:
  core::Network& net_;
  SimTime interval_;
  std::vector<PercentileSampler> utilization_;
  std::vector<std::int64_t> last_tx_bytes_;
  PercentileSampler all_;
  sim::ScopedEventHandle timer_;
  bool started_ = false;
};

}  // namespace oo::services
