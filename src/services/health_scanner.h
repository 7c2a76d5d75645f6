// Health scanner: evidence-based detection of *gray* failures — components
// that keep their light up and their acks flowing while silently mangling
// traffic — and a graded, reversible remediation ladder (the gray-failure
// counterpart of the sync watchdog's clock-fault domain).
//
// Detection uses observable symptoms only; the scanner never reads fault
// state, true BER, or un-skewed counters:
//
//   - Per-circuit conservation audits. At every global slice boundary T the
//     scanner snapshots each node's self-reported cumulative uplink tx
//     counters, and at T + latency_max + 1ns the rx counters. Because the
//     head guard exceeds the fabric's delivery jitter, the delayed rx window
//     (T_prev + L_max, T + L_max] captures exactly the deliveries of the
//     slice that ended at T — so the schedule tells which circuit carried
//     which bytes, and each (src, port) -> (dst, dport) pair yields an exact
//     per-slice tx/rx delta. Loss fractions feed per-circuit EWMAs; an
//     evidence threshold (minimum anomalous audits + minimum bytes) keeps
//     clean-but-bursty runs quiet.
//   - Tomography-style intersection. One (src, port) anomalous toward many
//     destinations = the port is dying (ber_ramp). A single anomalous
//     circuit = a dirty port pair (gray_port_pair). A *negative* loss delta
//     is physically impossible, so a node whose ingress and egress disagree
//     in opposite directions is lying about its counters (telemetry_skew) —
//     self-reports are evidence against the reporter, never trusted.
//   - Claim-vs-behavior. A ToR whose agent's committed-epoch watermark
//     (what it acked) diverges from the forwarding epoch the network
//     observed it rotate onto (what it did), persistently and outside any
//     in-flight transaction, silently dropped an install
//     (silent_install_fail).
//   - Targeted active probes (transport::UdpProbe with timeout + capped
//     backoff) are sent only once a node is Suspect — a clean run schedules
//     no probes and is byte-identical to a scanner-less run.
//
// Remediation ladder, a four-rung services::Ladder per node:
//   Healthy -> Suspect      evidence threshold crossed; targeted probing
//                           starts across the blamed component
//   Suspect -> Degraded     probe losses or sustained evidence; the
//                           ladder's steering hook
//                           (HybridSteering::set_node_degraded) shifts
//                           elephant flows off the node
//   Degraded -> Quarantined further losses/evidence; optical egress fenced,
//                           traffic diverted + queues flushed (hybrid
//                           fabrics only — otherwise the ladder tops out)
//   any -> Healthy          four consecutive clean audits
//
// Every decision runs on the control queue from boundary-aligned audit
// events, reading worker-lane counters only at barriers (the invariant-
// census idiom) — shard-safe, and byte-identical at any shard count.
//
// Known blind spots (see DESIGN.md): TA/static mode has no head guard, so
// ~jitter-window bytes can smear across audit edges (bounded, sub-MTU);
// readmission probes ride the healthy fabric, so a sticky optical fault
// re-triggers detection after readmission instead of holding the node out
// forever; faults during mixed-epoch exposure defer to the claim check.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.h"
#include "services/ladder.h"
#include "transport/udp_probe.h"

namespace oo::core {
class Controller;
}

namespace oo::services {

class HealthScanner {
 public:
  // Loss-fraction score at which a circuit counts as anomalous.
  static constexpr double kDefaultSuspectScore = 0.05;

  // Ladder rungs; numeric order is escalation order.
  enum class NodeHealth { Healthy = 0, Suspect, Degraded, Quarantined };

  // What the tomography pass localized.
  enum class Cause {
    None = 0,
    LinkLoss,       // one dirty circuit: (node, port) -> peer
    PortDegrade,    // (node, port) lossy toward many peers
    TelemetrySkew,  // node's self-reports are inconsistent both directions
    SilentInstall,  // node acked an install it never applied
  };
  struct Blame {
    Cause cause = Cause::None;
    PortId port = kInvalidPort;   // blamed local port (loss causes)
    NodeId peer = kInvalidNode;   // blamed far end (LinkLoss)
  };

  explicit HealthScanner(core::Network& net,
                         double suspect_score = kDefaultSuspectScore);
  HealthScanner(const HealthScanner&) = delete;
  HealthScanner& operator=(const HealthScanner&) = delete;

  // Wire the claim-vs-behavior check (silent_install_fail detection needs
  // the agents' committed-epoch watermarks). Optional; unwired scanners
  // simply cannot charge silent installs.
  void set_controller(const core::Controller* ctl) { ctl_ = ctl; }

  // The per-node ladder; rungs are NodeHealth values. Its steering hook
  // fires on Degraded entry (true) and on readmission from Degraded or
  // Quarantined (false).
  Ladder& ladder() { return ladder_; }

  // Start boundary-aligned audits. Stop drops timers and probes but leaves
  // in-effect degradations/quarantines as they are.
  void start();
  void stop();
  bool running() const { return started_; }

  NodeHealth state(NodeId n) const {
    return static_cast<NodeHealth>(ladder_.rung(n));
  }
  const Blame& blame(NodeId n) const {
    return nodes_[static_cast<std::size_t>(n)].blame;
  }

  // ---- robustness telemetry ----
  std::int64_t audits() const { return audits_->value(); }
  std::int64_t suspects() const { return suspects_->value(); }
  std::int64_t degrades() const { return degrades_->value(); }
  std::int64_t quarantines() const { return quarantines_->value(); }
  std::int64_t readmissions() const { return readmissions_->value(); }
  std::int64_t probes_lost() const { return probes_lost_->value(); }

 private:
  // Per directed circuit (src, port, dst) loss ledger.
  struct CircuitStat {
    double ewma = 0.0;
    int anomalous_audits = 0;
  };
  struct NodeState {
    Blame blame;
    int rounds_at_rung = 0;
    int claim_mismatch_rounds = 0;
    int probe_losses = 0;
    SimTime suspect_at = SimTime::zero();
    std::unique_ptr<transport::UdpProbe> probe;
  };

  std::size_t circuit_index(NodeId src, PortId port, NodeId dst) const {
    return (static_cast<std::size_t>(src) * static_cast<std::size_t>(uplinks_) +
            static_cast<std::size_t>(port)) *
               static_cast<std::size_t>(num_nodes_) +
           static_cast<std::size_t>(dst);
  }

  void sample_tx(std::int64_t boundary_abs);
  void audit(std::int64_t boundary_abs);
  void classify(std::int64_t slice_abs);
  void escalate(NodeId n, const Blame& why);
  void start_probe(NodeId n);
  void on_probe_loss(NodeId n);
  void readmit(NodeId n);

  core::Network& net_;
  const double suspect_score_;
  const core::Controller* ctl_ = nullptr;
  int num_nodes_ = 0;
  int uplinks_ = 0;
  SimTime rx_delay_ = SimTime::zero();  // latency_max + 1ns
  Ladder ladder_;
  std::vector<NodeState> nodes_;
  std::vector<CircuitStat> circuits_;
  // Peak disagreement breadth per node, held until every circuit touching
  // the node fully decays — the tomography tie-breaker must not invert
  // while a healed fault's evidence drains at uneven per-circuit rates.
  std::vector<int> breadth_hold_;
  // Cumulative-counter snapshots, indexed node * uplinks + port.
  std::vector<std::int64_t> last_tx_;
  std::vector<std::int64_t> last_rx_;
  std::vector<std::int64_t> pending_tx_;  // sampled at T, consumed at T+delay
  std::int64_t pending_slice_abs_ = -1;
  bool have_baseline_ = false;
  std::shared_ptr<bool> alive_;
  sim::ScopedEventHandle boundary_handle_;
  bool started_ = false;
  telemetry::Counter* audits_;
  telemetry::Counter* symptoms_loss_;
  telemetry::Counter* symptoms_negative_;
  telemetry::Counter* symptoms_claim_;
  telemetry::Counter* suspects_;
  telemetry::Counter* degrades_;
  telemetry::Counter* quarantines_;
  telemetry::Counter* readmissions_;
  telemetry::Counter* probes_lost_;
};

}  // namespace oo::services
