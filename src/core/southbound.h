// Southbound control channel: the modeled message path between the
// controller and each ToR's install agent (§4.1's deploy arrow made
// fallible). Every install/ack/commit/abort message traverses it and can be
// delayed, lost, or duplicated — per the base configuration or a per-node
// fault override (services::FaultPlan's sb_msg_* kinds). An *ideal* channel
// (zero latency, no loss/dup, no overrides) delivers inline, synchronously,
// consuming no randomness — so pre-transactional callers that deploy outside
// the event loop observe the exact legacy semantics.
//
// Determinism: the channel's rng is derived lazily from the network seed via
// derive_seed (its own stream), not forked from the network's master rng —
// attaching or exercising the channel never perturbs the fork order other
// components rely on, and an untouched channel draws nothing at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"

namespace oo::core {

class Network;

struct SouthboundConfig {
  // One-way per-message latency controller <-> ToR.
  SimTime latency = SimTime::zero();
  // Per-message loss / duplication probabilities (fabric-wide base; per-node
  // fault overrides combine by max).
  double loss_prob = 0.0;
  double dup_prob = 0.0;
  // Extra delay of a duplicated copy beyond the original's delivery.
  SimTime dup_extra = SimTime::micros(20);
};

class SouthboundChannel {
 public:
  explicit SouthboundChannel(Network& net);

  void configure(const SouthboundConfig& cfg);
  const SouthboundConfig& config() const { return cfg_; }

  // True when every message would be delivered instantly and reliably —
  // the inline fast path. Per-node overrides make the channel non-ideal
  // even with a zero base config.
  bool ideal() const { return ideal_base_ && overrides_active_ == 0; }

  // Per-node fault overrides (node == kInvalidNode applies to every node).
  // Probability/delay 0 clears the override.
  void set_node_loss(NodeId node, double prob);
  void set_node_delay(NodeId node, SimTime extra);
  void set_node_dup(NodeId node, double prob);

  // Sends one message on the (node <-> controller) leg: `deliver` runs once
  // per surviving copy after the modeled latency. Returns the number of
  // copies scheduled (0 = lost). Ideal messages deliver inline.
  int send(NodeId node, std::function<void()> deliver, const char* tag);

  // ---- replica <-> replica leg (controller quorum) ----
  // Sizes the per-replica loss table. Replica links share the base config
  // (latency/loss/dup) with the ToR leg but have their own loss override
  // and their own rng stream, so attaching a quorum never perturbs the ToR
  // leg's draws.
  void set_num_replicas(int n);
  void set_replica_loss(int replica, double prob);
  // Sends one message on the (replica <-> replica) mesh toward `to`.
  // Semantics mirror send(): returns copies scheduled, inline when ideal.
  int send_replica(int to, std::function<void()> deliver, const char* tag);

  std::int64_t msgs_sent() const { return sent_; }
  std::int64_t msgs_lost() const { return lost_; }
  std::int64_t msgs_duped() const { return duped_; }
  std::int64_t replica_msgs_sent() const { return rep_sent_; }
  std::int64_t replica_msgs_lost() const { return rep_lost_; }

 private:
  struct Override {
    double loss = 0.0;
    double dup = 0.0;
    SimTime delay = SimTime::zero();
    bool any() const {
      return loss > 0.0 || dup > 0.0 || delay > SimTime::zero();
    }
  };

  Override& slot(NodeId node);
  double& replica_loss(int replica);
  void note_override_change(bool had, bool has);
  Rng& rng();
  Rng& replica_rng();

  Network& net_;
  SouthboundConfig cfg_;
  bool ideal_base_ = true;
  int overrides_active_ = 0;  // nodes (incl. the wildcard) with a live override
  Override all_;              // kInvalidNode wildcard
  std::vector<Override> per_node_;
  std::unique_ptr<Rng> rng_;  // lazily created on the first non-ideal send
  std::int64_t sent_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t duped_ = 0;
  // Replica mesh state: separate loss table and rng so the ToR leg's
  // behavior (and stream) is independent of the quorum's.
  std::vector<double> per_replica_loss_;
  std::unique_ptr<Rng> rep_rng_;
  std::int64_t rep_sent_ = 0;
  std::int64_t rep_lost_ = 0;
};

}  // namespace oo::core
