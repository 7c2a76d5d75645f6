#include "optics/fabric.h"

#include <cassert>
#include <cmath>

namespace oo::optics {

OcsProfile ocs_mems() {
  return OcsProfile{.name = "mems",
                    .reconfig_delay = SimTime::millis(25),
                    .min_slice = SimTime::millis(100),
                    .latency_min = SimTime::nanos(300),
                    .latency_max = SimTime::nanos(320)};
}

OcsProfile ocs_rotor() {
  return OcsProfile{.name = "rotor",
                    .reconfig_delay = SimTime::micros(2),
                    .min_slice = SimTime::micros(20),
                    .latency_min = SimTime::nanos(300),
                    .latency_max = SimTime::nanos(320)};
}

OcsProfile ocs_liquid_crystal() {
  return OcsProfile{.name = "liquid-crystal",
                    .reconfig_delay = SimTime::micros(10),
                    .min_slice = SimTime::micros(100),
                    .latency_min = SimTime::nanos(300),
                    .latency_max = SimTime::nanos(320)};
}

OcsProfile ocs_awgr() {
  return OcsProfile{.name = "awgr",
                    .reconfig_delay = SimTime::nanos(200),
                    .min_slice = SimTime::micros(2),
                    .latency_min = SimTime::nanos(300),
                    .latency_max = SimTime::nanos(320)};
}

OcsProfile ocs_emulated() {
  // Tofino2 cut-through logical OCS (§5.3); latency calibrated to the
  // measured 1287-1324 ns ToR-to-ToR delay of Fig. 11.
  return OcsProfile{.name = "emulated",
                    .reconfig_delay = SimTime::nanos(200),
                    .min_slice = SimTime::micros(2),
                    .latency_min = SimTime::nanos(1287),
                    .latency_max = SimTime::nanos(1324)};
}

OpticalFabric::OpticalFabric(sim::Simulator& s, Schedule schedule,
                             OcsProfile profile, Rng rng)
    : sim_(s),
      schedule_(std::move(schedule)),
      profile_(std::move(profile)),
      rng_(rng),
      delivered_(&s.metrics().counter("fabric.delivered")),
      drops_no_circuit_(
          &s.metrics().counter("fabric.drops", {{"class", "no_circuit"}})),
      drops_guard_(&s.metrics().counter("fabric.drops", {{"class", "guard"}})),
      drops_boundary_(
          &s.metrics().counter("fabric.drops", {{"class", "boundary"}})),
      drops_failed_(
          &s.metrics().counter("fabric.drops", {{"class", "failed"}})),
      drops_corrupt_(
          &s.metrics().counter("fabric.drops", {{"class", "corrupt"}})),
      drops_gray_(&s.metrics().counter("fabric.drops", {{"class", "gray"}})),
      reconfig_stalls_(&s.metrics().counter("fabric.reconfig_stalls")),
      wrong_slice_(&s.metrics().counter("fabric.wrong_slice")) {
  sinks_.resize(static_cast<std::size_t>(schedule_.num_nodes()));
  failed_ports_.assign(static_cast<std::size_t>(schedule_.num_nodes()) *
                           schedule_.uplinks(),
                       0);
  port_ber_.assign(failed_ports_.size(), 0.0);
}

void OpticalFabric::set_port_failed(NodeId node, PortId port, bool failed) {
  auto& slot =
      failed_ports_.at(static_cast<std::size_t>(node) * schedule_.uplinks() +
                       static_cast<std::size_t>(port));
  const bool was = slot != 0;
  if (was == failed) return;  // no light transition, no alarm
  slot = failed ? 1 : 0;
  const SimTime at = sim_.now();
  if (auto* tr = sim_.recorder()) tr->circuit(at, !failed, node, port);
  sim_.schedule_in(
      profile_.los_detect_latency,
      [this, node, port, at, failed]() {
        const auto& listeners = failed ? down_listeners_ : up_listeners_;
        for (const auto& fn : listeners) fn(node, port, at);
      },
      "fabric.los");
}

void OpticalFabric::set_port_ber(NodeId node, PortId port, double ber) {
  port_ber_.at(static_cast<std::size_t>(node) * schedule_.uplinks() +
               static_cast<std::size_t>(port)) = ber;
}

double OpticalFabric::port_ber(NodeId node, PortId port) const {
  return port_ber_[static_cast<std::size_t>(node) * schedule_.uplinks() +
                   static_cast<std::size_t>(port)];
}

void OpticalFabric::set_gray_pair(NodeId node, PortId port, NodeId peer,
                                  double prob) {
  assert(node >= 0 && node < schedule_.num_nodes());
  assert(port >= 0 && port < schedule_.uplinks());
  for (auto it = gray_pairs_.begin(); it != gray_pairs_.end(); ++it) {
    if (it->node == node && it->port == port && it->peer == peer) {
      if (prob <= 0.0) {
        gray_pairs_.erase(it);
      } else {
        it->prob = prob;
      }
      return;
    }
  }
  if (prob > 0.0) gray_pairs_.push_back({node, port, peer, prob});
}

bool OpticalFabric::stall_reconfig(SimTime extra) {
  if (!reconfiguring() || extra <= SimTime::zero()) return false;
  switch_done_ += extra;
  reconfig_stalls_->inc();
  // The commit event scheduled for the original deadline sees the pushed-out
  // switch_done_ and does nothing; this one lands the stalled retargeting.
  sim_.schedule_at(
      switch_done_,
      [this]() {
        if (switching_ && sim_.now() >= switch_done_) {
          schedule_ = next_schedule_;
          switching_ = false;
        }
      },
      "fabric.reconfig");
  return true;
}

bool OpticalFabric::port_failed(NodeId node, PortId port) const {
  return failed_ports_[static_cast<std::size_t>(node) * schedule_.uplinks() +
                       static_cast<std::size_t>(port)] != 0;
}

void OpticalFabric::attach(NodeId node, DeliverFn deliver) {
  assert(node >= 0 && node < schedule_.num_nodes());
  sinks_[static_cast<std::size_t>(node)] = std::move(deliver);
}

bool OpticalFabric::reconfiguring() const {
  return switching_ && sim_.now() < switch_done_;
}

std::optional<Endpoint> OpticalFabric::live_peer(const Schedule& sched,
                                                 NodeId from, PortId port,
                                                 SliceId slice,
                                                 SimTime at) const {
  auto cur = sched.peer(from, port, slice);
  if (switching_ && at < switch_done_) {
    // Mid-reconfiguration: a circuit is up only if the old and new schedule
    // agree on it (unchanged circuits keep carrying light).
    auto nxt = next_schedule_.peer(from, port, slice);
    if (cur && nxt && *cur == *nxt) return cur;
    return std::nullopt;
  }
  return cur;
}

void OpticalFabric::enable_sharding() {
  if (sharded_) return;
  sharded_ = true;
  src_rngs_.reserve(static_cast<std::size_t>(schedule_.num_nodes()));
  for (int n = 0; n < schedule_.num_nodes(); ++n) {
    src_rngs_.push_back(rng_.fork());
  }
}

void OpticalFabric::notify_violation(NodeId from, SimTime at) {
  if (violation_listeners_.empty()) return;
  // Listeners (the sync watchdog) live on the control queue; a worker
  // lane posts the symptom through the barrier instead of calling in.
  sim_.run_on(
      sim::Simulator::kControlLane,
      [this, from, at]() {
        for (const auto& fn : violation_listeners_) fn(from, at);
      },
      "fabric.violation");
}

void OpticalFabric::transmit(NodeId from, PortId port, Packet&& p,
                             SimTime tx_start, SimTime tx_end) {
  auto* tr = sim_.recorder();
  const auto dropped = [&](telemetry::Counter* c, telemetry::DropReason why) {
    c->inc();
    if (tr) tr->drop(sim_.now(), why, from, port, p.id, p.size_bytes);
  };
  // Commit a pending reconfiguration once its window has elapsed. Sharded
  // mode must not write shared fabric state from a worker lane, so it reads
  // the effective schedule instead — the control-queue commit event
  // scheduled by reconfigure() does the actual write.
  if (switching_ && sim_.now() >= switch_done_ && !sharded_) {
    schedule_ = next_schedule_;
    switching_ = false;
  }
  const Schedule& sched = (sharded_ && switching_ && sim_.now() >= switch_done_)
                              ? next_schedule_
                              : schedule_;
  const std::int64_t abs_a = sched.abs_slice_at(tx_start);
  // Slice-boundary and per-slice retargeting constraints only exist on
  // rotating (multi-slice) schedules; a TA topology instance holds its
  // circuits continuously and reconfigures only via reconfigure().
  if (sched.period() > 1) {
    const std::int64_t abs_b = sched.abs_slice_at(tx_end - SimTime::nanos(1));
    if (abs_a != abs_b) {
      dropped(drops_boundary_, telemetry::DropReason::Boundary);
      notify_violation(from, tx_start);
      return;
    }
    const SimTime slice_begin = sched.slice_start(abs_a);
    if (tx_start < slice_begin + profile_.reconfig_delay) {
      dropped(drops_guard_, telemetry::DropReason::Guard);
      notify_violation(from, tx_start);
      return;
    }
  }
  const SliceId slice = sched.slice_of(abs_a);
  // Wrong-slice launch: the sender's calendar stamped this packet for a
  // specific cycle slice, but its (drifted) clock opened the window inside a
  // different one. A healthy node can never trip this — its launch window is
  // provably interior to the intended slice — so the check is a pure desync
  // symptom. The fabric itself has no way to refuse the bytes: the circuit
  // of the wrong slice is live and carries them to the wrong peer.
  if (sched.period() > 1 && p.intended_slice != kAnySlice &&
      slice != p.intended_slice) {
    wrong_slice_->inc();
    if (tr) tr->wrong_slice(sim_.now(), from, port, p.id, abs_a);
    notify_violation(from, tx_start);
  }
  auto peer = live_peer(sched, from, port, slice, tx_start);
  if (!peer) {
    dropped(drops_no_circuit_, telemetry::DropReason::NoCircuit);
    return;
  }
  if (port_failed(from, port) || port_failed(peer->node, peer->port)) {
    dropped(drops_failed_, telemetry::DropReason::Failed);
    return;
  }
  // Sharded: BER/jitter draws come from the source node's private stream,
  // so the draw sequence is a function of that ToR's own transmissions —
  // identical at any worker count. The shared stream would interleave by
  // execution order across lanes.
  Rng& rng = sharded_ ? src_rngs_[static_cast<std::size_t>(from)] : rng_;
  // Gray port-pair loss: a dirty mirror on this specific circuit
  // configuration eats the packet with no alarm and no timing violation —
  // only the rx-side byte ledger can see it. The rng draw happens ONLY when
  // an entry matches, so runs without gray faults consume the exact same
  // random sequence as before the feature existed (byte-identity).
  if (!gray_pairs_.empty()) {
    for (const GrayEntry& g : gray_pairs_) {
      if (g.node != from || g.port != port) continue;
      if (g.peer != kInvalidNode && g.peer != peer->node) continue;
      if (rng.uniform01() < g.prob) {
        dropped(drops_gray_, telemetry::DropReason::Gray);
        return;
      }
      break;  // at most one entry per (node, port, peer) can match
    }
  }
  const double ber = port_ber(from, port) + port_ber(peer->node, peer->port);
  if (ber > 0.0) {
    const double bits = static_cast<double>(p.size_bytes) * kBitsPerByte;
    const double p_corrupt = 1.0 - std::pow(1.0 - ber, bits);
    if (rng.uniform01() < p_corrupt) {
      dropped(drops_corrupt_, telemetry::DropReason::Corrupt);
      return;
    }
  }
  const SimTime jitter_span = profile_.latency_max - profile_.latency_min;
  SimTime latency = profile_.latency_min;
  if (jitter_span > SimTime::zero()) {
    latency += SimTime::nanos(rng.uniform_i64(0, jitter_span.ns()));
  }
  const NodeId to = peer->node;
  const PortId in_port = peer->port;
  auto& sink = sinks_[static_cast<std::size_t>(to)];
  assert(sink && "destination node not attached to fabric");
  delivered_->inc();
  ++p.hops;
  // Delivery runs on the destination ToR's lane (lane id == node id); the
  // fabric latency is >= the engine's sync window, so the hop always lands
  // in a later window without clamping. Legacy mode: plain schedule_at.
  sim_.schedule_at_lane(
      to, tx_end + latency,
      [&sink, in_port, pkt = std::move(p)]() mutable {
        sink(std::move(pkt), in_port);
      },
      "fabric.deliver");
}

void OpticalFabric::reconfigure(Schedule next, SimTime delay) {
  // A reconfigure while one is pending: the pending one completes logically
  // first (its schedule becomes "current" for the diff).
  if (switching_ && sim_.now() >= switch_done_) {
    schedule_ = next_schedule_;
  }
  next_schedule_ = std::move(next);
  switching_ = true;
  switch_done_ = sim_.now() + delay;
  sim_.schedule_at(
      switch_done_,
      [this]() {
        if (switching_ && sim_.now() >= switch_done_) {
          schedule_ = next_schedule_;
          switching_ = false;
        }
      },
      "fabric.reconfig");
}

}  // namespace oo::optics
