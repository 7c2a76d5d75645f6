#include "services/health_scanner.h"

#include <algorithm>
#include <cmath>

#include "core/controller.h"

namespace oo::services {

namespace {
// EWMA smoothing for per-circuit loss fractions.
constexpr double kEwmaAlpha = 0.3;
// Anomalous audits a circuit must accumulate before it is evidence — the
// threshold that keeps clean-but-bursty runs quiet.
constexpr int kMinAnomalousAudits = 3;
// Circuits carrying fewer bytes than this in a slice are not audited (a
// one-packet sample is not evidence).
constexpr std::int64_t kMinAuditBytes = 3000;
// Targeted probing once Suspect.
constexpr SimTime kProbeInterval = SimTime::micros(20);
constexpr SimTime kProbeTimeout = SimTime::micros(60);
constexpr SimTime kProbeBackoffCap = SimTime::micros(480);
constexpr int kProbeRetries = 2;
// Escalation: probe losses take the next rung immediately; lying faults
// (skew, silent install) produce no probe loss, so sustained evidence rounds
// escalate instead.
constexpr int kDegradeProbeLosses = 3;
constexpr int kEscalateRounds = 4;
// Consecutive audit rounds the agent's epoch claim must diverge from
// observed forwarding (outside any in-flight transaction) before a silent
// install is charged — one apply normally lags one boundary.
constexpr int kClaimMismatchRounds = 3;
// Consecutive clean audit rounds before any rung is re-admitted.
constexpr int kReadmitCleanRounds = 4;
}  // namespace

HealthScanner::HealthScanner(core::Network& net, double suspect_score)
    : net_(net),
      suspect_score_(suspect_score),
      ladder_(net, "scanner_ladder",
              {"healthy", "suspect", "degraded", "quarantined"},
              kReadmitCleanRounds),
      audits_(&net.sim().metrics().counter("health.audits")),
      symptoms_loss_(
          &net.sim().metrics().counter("health.symptoms", {{"kind", "loss"}})),
      symptoms_negative_(&net.sim().metrics().counter(
          "health.symptoms", {{"kind", "negative"}})),
      symptoms_claim_(
          &net.sim().metrics().counter("health.symptoms", {{"kind", "claim"}})),
      suspects_(&net.sim().metrics().counter("health.suspects")),
      degrades_(&net.sim().metrics().counter("health.degrades")),
      quarantines_(&net.sim().metrics().counter("health.quarantines")),
      readmissions_(&net.sim().metrics().counter("health.readmissions")),
      probes_lost_(&net.sim().metrics().counter("health.probes_lost")) {}

void HealthScanner::start() {
  if (started_) return;
  started_ = true;
  num_nodes_ = net_.num_tors();
  uplinks_ = net_.schedule().uplinks();
  nodes_.clear();
  nodes_.resize(static_cast<std::size_t>(num_nodes_));
  circuits_.assign(static_cast<std::size_t>(num_nodes_) *
                       static_cast<std::size_t>(uplinks_) *
                       static_cast<std::size_t>(num_nodes_),
                   CircuitStat{});
  breadth_hold_.assign(static_cast<std::size_t>(num_nodes_), 0);
  const std::size_t ports =
      static_cast<std::size_t>(num_nodes_) * static_cast<std::size_t>(uplinks_);
  last_tx_.assign(ports, 0);
  last_rx_.assign(ports, 0);
  pending_tx_.assign(ports, 0);
  have_baseline_ = false;
  pending_slice_abs_ = -1;
  // Delivery-jitter closure: deliveries of the slice ending at boundary T
  // have all landed by T + latency_max, and (thanks to the head guard) the
  // next slice's first delivery lands strictly later — so sampling rx at
  // T + latency_max + 1ns captures exactly one slice's worth.
  rx_delay_ = net_.optical().profile().latency_max + SimTime::nanos(1);
  alive_ = std::make_shared<bool>(true);
  // One audit per slice, the first at the next global slice boundary; every
  // audit event runs on the control queue, so worker-lane counters are read
  // at barriers.
  const std::int64_t next_abs =
      net_.schedule().abs_slice_at(net_.sim().now()) + 1;
  boundary_handle_ = net_.sim().schedule_every(
      net_.schedule().slice_start(next_abs), net_.schedule().slice_duration(),
      [this]() {
        const std::int64_t k = net_.schedule().abs_slice_at(net_.sim().now());
        sample_tx(k);
        std::weak_ptr<bool> weak = alive_;
        net_.sim().schedule_in(
            rx_delay_,
            [this, k, weak]() {
              if (auto a = weak.lock(); a && *a) audit(k);
            },
            "health.audit");
      },
      "health.boundary");
}

void HealthScanner::stop() {
  if (!started_) return;
  started_ = false;
  if (alive_) *alive_ = false;
  alive_.reset();
  boundary_handle_.cancel();
  for (auto& st : nodes_) st.probe.reset();
}

void HealthScanner::sample_tx(std::int64_t boundary_abs) {
  for (NodeId n = 0; n < num_nodes_; ++n) {
    auto& tor = net_.tor(n);
    for (PortId p = 0; p < uplinks_; ++p) {
      pending_tx_[static_cast<std::size_t>(n * uplinks_ + p)] =
          tor.reported_uplink_tx_bytes(p);
    }
  }
  pending_slice_abs_ = boundary_abs - 1;  // the slice that just ended
}

void HealthScanner::audit(std::int64_t boundary_abs) {
  if (!started_) return;
  (void)boundary_abs;
  const std::size_t ports = last_rx_.size();
  std::vector<std::int64_t> rx_now(ports, 0);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    auto& tor = net_.tor(n);
    for (PortId p = 0; p < uplinks_; ++p) {
      rx_now[static_cast<std::size_t>(n * uplinks_ + p)] =
          tor.reported_uplink_rx_bytes(p);
    }
  }
  if (!have_baseline_) {
    // The first sample covers a partial slice; use it only as the baseline.
    have_baseline_ = true;
    last_tx_ = pending_tx_;
    last_rx_ = rx_now;
    return;
  }
  audits_->inc();
  // While the fabric is knowingly mixed-epoch (a deploy committed on some
  // ToRs but not others), the schedule the scanner attributes bytes with is
  // not the one every node forwarded on — conservation deltas would charge
  // healthy nodes. Skip the ledger update; the claim-vs-behavior check in
  // classify() still runs and is exactly what indicts a silent installer.
  if (!net_.epoch_mixed()) {
    const SliceId slice = net_.schedule().slice_of(pending_slice_abs_);
    for (NodeId src = 0; src < num_nodes_; ++src) {
      for (PortId p = 0; p < uplinks_; ++p) {
        const std::size_t si = static_cast<std::size_t>(src * uplinks_ + p);
        const std::int64_t dtx = pending_tx_[si] - last_tx_[si];
        const auto peer = net_.schedule().peer(src, p, slice);
        if (!peer) continue;
        // A circuit touching a quarantined node reflects the remediation,
        // not the fabric: the fence eats the bytes, and charging the honest
        // far end would cascade one quarantine into many. Administrative
        // loss is not evidence.
        const bool administrative =
            ladder_.fenced(src) || ladder_.fenced(peer->node);
        if (administrative || dtx < kMinAuditBytes) {
          // An idle circuit is not evidence either way, but held evidence
          // must decay — a quarantined node carries no optical traffic, and
          // frozen anomaly counts would block its readmission forever.
          CircuitStat& cs = circuits_[circuit_index(src, p, peer->node)];
          cs.ewma *= 1.0 - kEwmaAlpha;
          if (std::abs(cs.ewma) < suspect_score_) cs.anomalous_audits = 0;
          continue;
        }
        const std::size_t di =
            static_cast<std::size_t>(peer->node * uplinks_ + peer->port);
        const std::int64_t drx = rx_now[di] - last_rx_[di];
        // A cumulative counter can only grow: a negative per-slice rx delta
        // is the reporter's skew factor being applied or cleared (the
        // reported total steps), never fabric behavior. Route it to the
        // impossible-gain evidence class — it indicts the counter, not the
        // circuit — and bound |loss| at 1 so a one-shot counter step decays
        // on the same clock as real evidence instead of masquerading as a
        // long-lived lossy link.
        double loss = static_cast<double>(dtx - drx) /
                      static_cast<double>(dtx);
        if (drx < 0) loss = -1.0;
        loss = std::clamp(loss, -1.0, 1.0);
        CircuitStat& cs = circuits_[circuit_index(src, p, peer->node)];
        cs.ewma = (1.0 - kEwmaAlpha) * cs.ewma + kEwmaAlpha * loss;
        if (std::abs(cs.ewma) >= suspect_score_) {
          ++cs.anomalous_audits;
          (cs.ewma > 0 ? symptoms_loss_ : symptoms_negative_)->inc();
        } else {
          cs.anomalous_audits = 0;
        }
      }
    }
  }
  last_tx_ = pending_tx_;
  last_rx_ = rx_now;
  classify(pending_slice_abs_);
}

void HealthScanner::classify(std::int64_t slice_abs) {
  (void)slice_abs;
  // Stale evidence on circuits into a fenced node must not implicate honest
  // far ends: once a node is quarantined its loss already has an owner, and
  // its circuits decay at uneven rates, so the breadth ordering that
  // protected its victims pre-quarantine can invert mid-decay. Treat every
  // circuit touching a quarantined endpoint as administrative here, exactly
  // as audit() does for fresh deltas.
  std::vector<char> fenced(static_cast<std::size_t>(num_nodes_), 0);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    fenced[static_cast<std::size_t>(n)] = ladder_.fenced(n);
  }
  // Per-node tomography aggregates over circuits that crossed the evidence
  // threshold. A positive EWMA is real loss on the circuit; a negative one
  // is physically impossible and indicts a counter, not the fabric.
  struct Agg {
    int pos_out = 0, neg_out = 0, pos_in = 0, neg_in = 0;
  };
  std::vector<Agg> agg(static_cast<std::size_t>(num_nodes_));
  for (NodeId src = 0; src < num_nodes_; ++src) {
    for (PortId p = 0; p < uplinks_; ++p) {
      for (NodeId dst = 0; dst < num_nodes_; ++dst) {
        if (fenced[static_cast<std::size_t>(src)] ||
            fenced[static_cast<std::size_t>(dst)]) {
          continue;
        }
        const CircuitStat& cs = circuits_[circuit_index(src, p, dst)];
        if (cs.anomalous_audits < kMinAnomalousAudits) continue;
        if (cs.ewma > 0) {
          ++agg[static_cast<std::size_t>(src)].pos_out;
          ++agg[static_cast<std::size_t>(dst)].pos_in;
        } else {
          ++agg[static_cast<std::size_t>(src)].neg_out;
          ++agg[static_cast<std::size_t>(dst)].neg_in;
        }
      }
    }
  }
  // Disagreement breadth: distinct counterparties with which a node shares
  // *any* anomalous circuit (either direction, any maturity). Conservation
  // evidence is symmetric — circuit (a -> b) implicates both ends equally —
  // so breadth is the tomography tie-breaker: a dying transceiver or a
  // skewed reporter disagrees with many counterparties, each honest far end
  // with exactly one. Soft maturity (a single anomalous audit) on purpose:
  // the real culprit's breadth outgrows its victims' well before the
  // evidence bar, which kills the blame-the-first-circuit-to-mature race.
  std::vector<int> breadth(static_cast<std::size_t>(num_nodes_), 0);
  for (NodeId a = 0; a < num_nodes_; ++a) {
    for (NodeId b = 0; b < num_nodes_; ++b) {
      if (a == b) continue;
      if (fenced[static_cast<std::size_t>(a)] ||
          fenced[static_cast<std::size_t>(b)]) {
        continue;
      }
      bool disagree = false;
      for (PortId p = 0; p < uplinks_ && !disagree; ++p) {
        disagree = circuits_[circuit_index(a, p, b)].anomalous_audits >= 1 ||
                   circuits_[circuit_index(b, p, a)].anomalous_audits >= 1;
      }
      if (disagree) ++breadth[static_cast<std::size_t>(a)];
    }
  }
  // Hold each node's peak breadth while any evidence touching it is still
  // draining: a healed broad fault's circuits decay at uneven rates, and
  // the instantaneous counts would invert the tie-breaker just long enough
  // to indict the honest src of the last circuit standing.
  for (NodeId n = 0; n < num_nodes_; ++n) {
    const std::size_t i = static_cast<std::size_t>(n);
    if (breadth[i] == 0) {
      breadth_hold_[i] = 0;
    } else {
      breadth_hold_[i] = std::max(breadth_hold_[i], breadth[i]);
    }
    breadth[i] = breadth_hold_[i];
  }
  // Intersection: real loss on both a node's egress *and* its ingress means
  // the transceiver itself is dying (a bad laser and a bad photodiode share
  // a module) — that node is indicted, and honest far ends whose only lossy
  // circuits terminate there must not be charged for its fault.
  std::vector<char> indicted(static_cast<std::size_t>(num_nodes_), 0);
  for (NodeId n = 0; n < num_nodes_; ++n) {
    const Agg& a = agg[static_cast<std::size_t>(n)];
    indicted[static_cast<std::size_t>(n)] = a.pos_out > 0 && a.pos_in > 0;
  }
  // Best positive egress evidence per node: blamed port, distinct peers,
  // strongest peer. Circuits into a far end with strictly greater breadth
  // are excluded — that loss already has a better owner.
  struct Egress {
    PortId port = kInvalidPort;
    NodeId peer = kInvalidNode;
    int peers_on_port = 0;
    double score = 0.0;
  };
  std::vector<Egress> egress(static_cast<std::size_t>(num_nodes_));
  for (NodeId src = 0; src < num_nodes_; ++src) {
    Egress& a = egress[static_cast<std::size_t>(src)];
    for (PortId p = 0; p < uplinks_; ++p) {
      int peers = 0;
      double best = 0.0;
      NodeId best_peer = kInvalidNode;
      for (NodeId dst = 0; dst < num_nodes_; ++dst) {
        if (fenced[static_cast<std::size_t>(src)] ||
            fenced[static_cast<std::size_t>(dst)]) {
          continue;
        }
        const CircuitStat& cs = circuits_[circuit_index(src, p, dst)];
        if (cs.anomalous_audits < kMinAnomalousAudits) continue;
        if (cs.ewma <= 0) continue;
        if (breadth[static_cast<std::size_t>(dst)] >
            breadth[static_cast<std::size_t>(src)]) {
          continue;
        }
        ++peers;
        if (cs.ewma > best) {
          best = cs.ewma;
          best_peer = dst;
        }
      }
      if (peers > a.peers_on_port ||
          (peers == a.peers_on_port && best > a.score)) {
        a.port = p;
        a.peer = best_peer;
        a.peers_on_port = peers;
        a.score = best;
      }
    }
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    NodeState& st = nodes_[static_cast<std::size_t>(n)];
    const Agg& a = agg[static_cast<std::size_t>(n)];
    const Egress& e = egress[static_cast<std::size_t>(n)];
    // Claim-vs-behavior: the agent's committed-epoch watermark (its ack
    // trail) against the forwarding epoch the network observed. One apply
    // legitimately lags a boundary, and an in-flight transaction is still
    // converging, so divergence must persist across audit rounds.
    bool claim_diverged = false;
    if (ctl_ != nullptr && !ctl_->txn_in_flight() &&
        ctl_->node_committed_epoch(n) != net_.node_epoch(n)) {
      ++st.claim_mismatch_rounds;
      symptoms_claim_->inc();
      claim_diverged = st.claim_mismatch_rounds >= kClaimMismatchRounds;
    } else {
      st.claim_mismatch_rounds = 0;
    }
    Blame why;
    if (((a.pos_out > 0 && a.neg_in > 0) || (a.neg_out > 0 && a.pos_in > 0)) &&
        breadth[static_cast<std::size_t>(n)] >= 2) {
      // Opposite-sign anomalies on the two directions of one node: every
      // circuit it reports on disagrees with an honest far end — the
      // reporter is skewed. Pairwise disagreement is symmetric (each honest
      // far end of a skewed reporter shows the mirror signature), so the
      // skewed node must disagree with at least two counterparties; its
      // victims each disagree with exactly one.
      why.cause = Cause::TelemetrySkew;
    } else if (indicted[static_cast<std::size_t>(n)] &&
               e.port != kInvalidPort) {
      // Two-sided real loss: the node's own transceiver, whatever the peer
      // mix looks like.
      why.cause = Cause::PortDegrade;
      why.port = e.port;
      why.peer = e.peer;
    } else if (claim_diverged) {
      why.cause = Cause::SilentInstall;
    } else if (a.pos_out > 0 && e.port != kInvalidPort &&
               e.peers_on_port > 0) {
      // Intersection localization: many lossy peers through one port =
      // the port; exactly one = that port pair.
      why.cause = e.peers_on_port >= 2 ? Cause::PortDegrade : Cause::LinkLoss;
      why.port = e.port;
      why.peer = e.peer;
    }
    const bool probe_evidence =
        st.probe != nullptr && st.probe->lost() > st.probe_losses;
    if (probe_evidence) st.probe_losses = static_cast<int>(st.probe->lost());
    if (why.cause != Cause::None) {
      ladder_.reset_clean(n);
      if (state(n) == NodeHealth::Healthy) {
        st.rounds_at_rung = 0;
        escalate(n, why);
      } else if (++st.rounds_at_rung >= kEscalateRounds) {
        st.rounds_at_rung = 0;
        escalate(n, why);
      }
    } else if (probe_evidence) {
      ladder_.reset_clean(n);
    } else if (ladder_.clean_round(n)) {
      readmit(n);
    }
  }
}

void HealthScanner::escalate(NodeId n, const Blame& why) {
  // Quarantine needs an electrical fabric to divert onto; without one the
  // ladder tops out at Degraded.
  if (!ladder_.can_climb(n)) return;
  NodeState& st = nodes_[static_cast<std::size_t>(n)];
  const SimTime now = net_.sim().now();
  const std::int64_t blamed_port =
      why.port == kInvalidPort ? -1 : static_cast<std::int64_t>(why.port);
  st.blame = why;
  switch (state(n)) {
    case NodeHealth::Healthy:
      st.suspect_at = now;
      st.probe_losses = 0;
      suspects_->inc();
      if (auto* tr = net_.sim().recorder()) {
        tr->health_suspect(now, n, static_cast<std::int64_t>(why.cause),
                           blamed_port);
      }
      ladder_.climb(n);
      start_probe(n);
      break;
    case NodeHealth::Suspect:
      degrades_->inc();
      if (auto* tr = net_.sim().recorder()) {
        tr->health_degrade(now, n, st.probe_losses, blamed_port);
      }
      ladder_.climb(n);
      break;
    case NodeHealth::Degraded:
      quarantines_->inc();
      if (auto* tr = net_.sim().recorder()) {
        tr->health_quarantine(now, n, static_cast<std::int64_t>(why.cause),
                              blamed_port);
      }
      ladder_.climb(n);
      // The node is off the optical fabric; probes would only measure the
      // healthy electrical path now.
      st.probe.reset();
      break;
    case NodeHealth::Quarantined:
      break;
  }
}

void HealthScanner::start_probe(NodeId n) {
  NodeState& st = nodes_[static_cast<std::size_t>(n)];
  // Pick endpoints so probe datagrams cross the suspect component: for loss
  // causes, from the blamed node through the blamed port's strongest-
  // evidence peer; for reporting causes, from the lowest healthy node into
  // the suspect.
  HostId pinger;
  HostId responder;
  if (st.blame.cause == Cause::LinkLoss ||
      st.blame.cause == Cause::PortDegrade) {
    const NodeId target =
        st.blame.peer != kInvalidNode ? st.blame.peer : (n + 1) % num_nodes_;
    pinger = net_.host_id(n, 0);
    responder = net_.host_id(target, 0);
  } else {
    NodeId src = kInvalidNode;
    for (NodeId m = 0; m < num_nodes_; ++m) {
      if (m != n && state(m) == NodeHealth::Healthy) {
        src = m;
        break;
      }
    }
    if (src == kInvalidNode) src = (n + 1) % num_nodes_;
    pinger = net_.host_id(src, 0);
    responder = net_.host_id(n, 0);
  }
  st.probe = std::make_unique<transport::UdpProbe>(
      net_, pinger, responder, kProbeInterval, 256);
  st.probe->set_timeout(kProbeTimeout, kProbeBackoffCap, kProbeRetries);
  std::weak_ptr<bool> weak = alive_;
  st.probe->set_loss_hook([this, n, weak](std::int64_t) {
    if (auto a = weak.lock(); a && *a) on_probe_loss(n);
  });
  st.probe->start();
}

void HealthScanner::on_probe_loss(NodeId n) {
  NodeState& st = nodes_[static_cast<std::size_t>(n)];
  ++st.probe_losses;
  probes_lost_->inc();
  ladder_.reset_clean(n);
  // Probe losses corroborate the audit evidence and take the next rung
  // without waiting out kEscalateRounds. The loss hook fires from the
  // probe's own timeout event on the control queue — never from inside a
  // fabric or drain callback — so escalating directly is re-entry safe.
  if (state(n) == NodeHealth::Suspect &&
      st.probe_losses >= kDegradeProbeLosses) {
    escalate(n, st.blame);
  } else if (state(n) == NodeHealth::Degraded &&
             st.probe_losses >= 2 * kDegradeProbeLosses) {
    escalate(n, st.blame);
  }
}

void HealthScanner::readmit(NodeId n) {
  NodeState& st = nodes_[static_cast<std::size_t>(n)];
  const SimTime now = net_.sim().now();
  readmissions_->inc();
  if (auto* tr = net_.sim().recorder()) {
    tr->health_readmit(now, n, (now - st.suspect_at).ns());
  }
  ladder_.readmit(n);
  st.blame = Blame{};
  st.rounds_at_rung = 0;
  st.claim_mismatch_rounds = 0;
  st.probe_losses = 0;
  st.probe.reset();
  // A readmitted node starts from a clean ledger: stale anomaly counts must
  // not fast-track the next suspicion.
  for (PortId p = 0; p < uplinks_; ++p) {
    for (NodeId dst = 0; dst < num_nodes_; ++dst) {
      circuits_[circuit_index(n, p, dst)] = CircuitStat{};
      circuits_[circuit_index(dst, p, n)] = CircuitStat{};
    }
  }
}

}  // namespace oo::services
