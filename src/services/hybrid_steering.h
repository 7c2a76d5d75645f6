// Hybrid electrical-optical traffic steering (c-Through-style, §2.1 TA-1):
// mice flows ride the parallel electrical network via the default flow-table
// route; flows classified as elephants by flow aging are steered onto a
// direct optical circuit when one exists (host-side source routing — the
// host stack picks the fabric, as c-Through's VLAN selection does).
#pragma once

#include "core/network.h"
#include "services/flow_aging.h"

namespace oo::services {

class HybridSteering {
 public:
  HybridSteering(core::Network& net, std::int64_t elephant_bytes,
                 SimTime idle_reset)
      : net_(net), aging_(elephant_bytes, idle_reset) {}

  // Call on every outgoing packet before Host::send. Observes the flow and,
  // for elephants with a live direct circuit from the source ToR, pins the
  // packet to the optical uplink.
  void prepare(core::Packet& p, NodeId src_tor);

  // Degraded mode (failure recovery's hook): while optical capacity is
  // reduced, elephants are NOT pinned to circuits — they ride the default
  // electrical route alongside the mice until recovery clears the flag.
  void set_degraded(bool d) { degraded_ = d; }
  bool degraded() const { return degraded_; }
  // Elephant packets that stayed electrical because of degraded mode.
  std::int64_t degraded_diverted() const { return diverted_; }

  // Per-node degraded mode (a remediation ladder's steering hook: the sync
  // watchdog's on quarantine, the health scanner's on Degraded): elephants
  // from or to a degraded ToR stay on the electrical route, without pulling
  // the whole fabric out of steering. Each `true` is one hold and each
  // `false` releases one, so a node both ladders degraded stays degraded
  // until both readmit it. Lazily sized on first use.
  void set_node_degraded(NodeId n, bool d);
  bool node_degraded(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    return i < degraded_holds_.size() && degraded_holds_[i] != 0;
  }

  FlowAging& aging() { return aging_; }
  std::int64_t steered_packets() const { return steered_; }

 private:
  core::Network& net_;
  FlowAging aging_;
  std::int64_t steered_ = 0;
  std::int64_t diverted_ = 0;
  bool degraded_ = false;
  std::vector<int> degraded_holds_;  // per node
};

}  // namespace oo::services
