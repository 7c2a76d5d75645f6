#include "services/hybrid_steering.h"

namespace oo::services {

void HybridSteering::set_node_degraded(NodeId n, bool d) {
  const auto i = static_cast<std::size_t>(n);
  if (i >= degraded_holds_.size()) {
    degraded_holds_.resize(static_cast<std::size_t>(net_.num_tors()), 0);
  }
  int& holds = degraded_holds_[i];
  if (d) {
    ++holds;
  } else if (holds > 0) {
    --holds;
  }
}

void HybridSteering::prepare(core::Packet& p, NodeId src_tor) {
  const bool elephant =
      aging_.observe(p.flow, p.size_bytes, net_.sim().now());
  if (!elephant) return;
  const NodeId dst =
      p.dst_node != kInvalidNode ? p.dst_node : net_.tor_of(p.dst_host);
  if (degraded_ || node_degraded(src_tor) ||
      (dst != kInvalidNode && node_degraded(dst))) {
    ++diverted_;
    return;  // reduced optical capacity: leave the elephant on electrical
  }
  if (dst == src_tor) return;
  const auto& sched = net_.schedule();
  // Static (TA) schedule: slice 0 is the topology instance.
  for (PortId u = 0; u < sched.uplinks(); ++u) {
    if (auto peer = sched.peer(src_tor, u, 0); peer && peer->node == dst) {
      p.source_route.assign(1, net::SourceHop{u, kAnySlice});
      p.route_idx = 0;
      ++steered_;
      return;
    }
  }
  // No circuit: the elephant stays on the electrical default route.
}

}  // namespace oo::services
