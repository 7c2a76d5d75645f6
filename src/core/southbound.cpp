#include "core/southbound.h"

#include <algorithm>

#include "core/network.h"

namespace oo::core {

SouthboundChannel::SouthboundChannel(Network& net)
    : net_(net),
      per_node_(static_cast<std::size_t>(net.num_tors())) {}

void SouthboundChannel::configure(const SouthboundConfig& cfg) {
  cfg_ = cfg;
  ideal_base_ = cfg_.latency == SimTime::zero() && cfg_.loss_prob <= 0.0 &&
                cfg_.dup_prob <= 0.0;
}

SouthboundChannel::Override& SouthboundChannel::slot(NodeId node) {
  if (node == kInvalidNode) return all_;
  return per_node_[static_cast<std::size_t>(node)];
}

void SouthboundChannel::note_override_change(bool had, bool has) {
  if (had && !has) --overrides_active_;
  if (!had && has) ++overrides_active_;
}

void SouthboundChannel::set_node_loss(NodeId node, double prob) {
  Override& o = slot(node);
  const bool had = o.any();
  o.loss = std::clamp(prob, 0.0, 1.0);
  note_override_change(had, o.any());
}

void SouthboundChannel::set_node_delay(NodeId node, SimTime extra) {
  Override& o = slot(node);
  const bool had = o.any();
  o.delay = extra < SimTime::zero() ? SimTime::zero() : extra;
  note_override_change(had, o.any());
}

void SouthboundChannel::set_node_dup(NodeId node, double prob) {
  Override& o = slot(node);
  const bool had = o.any();
  o.dup = std::clamp(prob, 0.0, 1.0);
  note_override_change(had, o.any());
}

Rng& SouthboundChannel::rng() {
  if (!rng_) {
    rng_ = std::make_unique<Rng>(
        derive_rng(net_.config().seed, 0, "southbound"));
  }
  return *rng_;
}

void SouthboundChannel::set_num_replicas(int n) {
  per_replica_loss_.resize(static_cast<std::size_t>(std::max(n, 0)));
}

double& SouthboundChannel::replica_loss(int replica) {
  if (static_cast<std::size_t>(replica) >= per_replica_loss_.size()) {
    per_replica_loss_.resize(static_cast<std::size_t>(replica) + 1);
  }
  return per_replica_loss_[static_cast<std::size_t>(replica)];
}

void SouthboundChannel::set_replica_loss(int replica, double prob) {
  replica_loss(replica) = std::clamp(prob, 0.0, 1.0);
}

Rng& SouthboundChannel::replica_rng() {
  if (!rep_rng_) {
    rep_rng_ = std::make_unique<Rng>(
        derive_rng(net_.config().seed, 1, "southbound.replica"));
  }
  return *rep_rng_;
}

int SouthboundChannel::send_replica(int to, std::function<void()> deliver,
                                    const char* tag) {
  ++rep_sent_;
  const double loss = std::max(cfg_.loss_prob, replica_loss(to));
  const double dup = cfg_.dup_prob;
  const SimTime delay = cfg_.latency;
  if (loss <= 0.0 && dup <= 0.0 && delay == SimTime::zero()) {
    deliver();
    return 1;
  }
  if (loss > 0.0 && replica_rng().uniform01() < loss) {
    ++rep_lost_;
    return 0;
  }
  int copies = 1;
  if (dup > 0.0 && replica_rng().uniform01() < dup) copies = 2;
  auto& sim = net_.sim();
  for (int i = 0; i < copies; ++i) {
    const SimTime d = delay + (i > 0 ? cfg_.dup_extra : SimTime::zero());
    sim.schedule_in(d, i + 1 < copies ? deliver : std::move(deliver), tag);
  }
  return copies;
}

int SouthboundChannel::send(NodeId node, std::function<void()> deliver,
                            const char* tag) {
  ++sent_;
  const Override& o = slot(node);
  const double loss = std::max({cfg_.loss_prob, all_.loss, o.loss});
  const double dup = std::max({cfg_.dup_prob, all_.dup, o.dup});
  const SimTime delay =
      cfg_.latency + std::max(all_.delay, o.delay);
  if (loss <= 0.0 && dup <= 0.0 && delay == SimTime::zero()) {
    deliver();
    return 1;
  }
  // Draw order is fixed (loss first, then dup, each only when armed) so a
  // replay with the same plan consumes the identical stream.
  if (loss > 0.0 && rng().uniform01() < loss) {
    ++lost_;
    return 0;
  }
  int copies = 1;
  if (dup > 0.0 && rng().uniform01() < dup) {
    copies = 2;
    ++duped_;
  }
  auto& sim = net_.sim();
  for (int i = 0; i < copies; ++i) {
    const SimTime d = delay + (i > 0 ? cfg_.dup_extra : SimTime::zero());
    sim.schedule_in(d, i + 1 < copies ? deliver : std::move(deliver), tag);
  }
  return copies;
}

}  // namespace oo::core
