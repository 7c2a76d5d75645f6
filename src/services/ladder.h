// Remediation ladder: the per-node rung that the sync watchdog and the
// health scanner each walk. Rung 0 is healthy and the top rung fences the
// node off the optical fabric. A node moves one rung up at a time (climb)
// or straight back to rung 0 (readmit), never any other way. The services
// keep their own evidence and decide when to move; the ladder owns what a
// move does:
//   - the fence: entering the top rung takes a quarantine hold on the node
//     (Network::set_node_quarantined) and readmission from it releases the
//     hold; the node stays fenced while the other ladder still holds it.
//     Quarantine needs an electrical fabric to divert onto, so without one
//     the ladder tops out one rung below;
//   - the steering hook: fired with true on entering rung 2 and with false
//     on readmission from rung 2 or above;
//   - the clean-round count: a node off rung 0 is due for readmission after
//     `readmit_rounds` clean rounds in a row;
//   - the transition tap: every move, for the invariant monitor's legality
//     check (chaos::InvariantMonitor::attach_ladder).
#pragma once

#include <functional>
#include <vector>

#include "core/network.h"

namespace oo::services {

class Ladder {
 public:
  // `name` is the invariant an illegal move violates (e.g.
  // "watchdog_ladder"); `rungs` names every rung from 0 (healthy) to the
  // top (fenced).
  Ladder(core::Network& net, const char* name, std::vector<const char*> rungs,
         int readmit_rounds);
  Ladder(const Ladder&) = delete;
  Ladder& operator=(const Ladder&) = delete;

  // The wiring point for services that shift load off a node, e.g.
  // HybridSteering::set_node_degraded, so elephant flows stop targeting the
  // optical calendar of a degraded or fenced ToR at the source host.
  using SteerFn = std::function<void(NodeId, bool)>;
  void set_steering_hook(SteerFn fn) { steer_ = std::move(fn); }

  // Invoked on every move. Null (the default) costs one branch.
  using TransitionFn = std::function<void(NodeId, int from, int to)>;
  void set_transition_hook(TransitionFn fn) { tap_ = std::move(fn); }

  const char* name() const { return name_; }
  const char* rung_name(int r) const;
  int top() const { return static_cast<int>(rungs_.size()) - 1; }
  int rung(NodeId n) const { return node(n).rung; }
  bool fenced(NodeId n) const { return rung(n) == top(); }
  // Whether `n` can take the next rung.
  bool can_climb(NodeId n) const;

  void climb(NodeId n);
  void readmit(NodeId n);

  // Counts a clean round for `n`; true once a node off rung 0 has had
  // `readmit_rounds` in a row (the caller then readmits it).
  bool clean_round(NodeId n);
  // Evidence against `n`: its clean rounds start over.
  void reset_clean(NodeId n) { node(n).clean_rounds = 0; }

 private:
  struct Node {
    int rung = 0;
    int clean_rounds = 0;
  };
  Node& node(NodeId n) { return nodes_[static_cast<std::size_t>(n)]; }
  const Node& node(NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)];
  }

  core::Network& net_;
  const char* name_;
  std::vector<const char*> rungs_;
  int readmit_rounds_;
  std::vector<Node> nodes_;
  SteerFn steer_;
  TransitionFn tap_;
};

}  // namespace oo::services
