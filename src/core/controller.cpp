#include "core/controller.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>

#include "core/quorum.h"

namespace oo::core {

namespace {

// Sentinel for "no overlay to clear" in a transaction.
constexpr int kNoClear = std::numeric_limits<int>::min();

// Commit retransmission cap: after this many unacked rounds the controller
// gives up and lets the mixed-epoch metric expose the straggler.
constexpr int kMaxCommitRounds = 8;

}  // namespace

// One deployment transaction. Prepared state lives here until the epoch is
// either committed (the Txn is retained as the agents' staged payload until
// the next epoch supersedes it) or aborted.
struct Controller::Txn {
  std::uint64_t epoch = 0;
  // Quorum term the transaction was issued under (0 = no quorum). A
  // takeover at a higher term locally aborts any in-flight txn below it.
  std::uint64_t term = 0;
  SimTime issued_at = SimTime::zero();

  bool has_topo = false;
  optics::Schedule topo;
  SimTime reconfig_delay = SimTime::zero();

  bool has_routing = false;
  std::vector<std::vector<TftEntry>> entries;  // per node
  MultipathMode multipath = MultipathMode::None;
  int clear_prio = kNoClear;

  TxnDoneFn on_done;

  // Prepare phase.
  int acks = 0;
  std::vector<char> acked;
  sim::EventHandle timeout;
  bool done = false;  // outcome decided (committed or aborted)

  // Commit phase.
  bool committed = false;
  std::int64_t activation_abs = -1;  // -1 = apply on commit receipt
  int commit_acks = 0;
  std::vector<char> commit_acked;
  int commit_rounds = 0;
  sim::EventHandle commit_timer;
};

Controller::Controller(Network& net)
    : net_(net),
      sb_(net),
      agents_(static_cast<std::size_t>(net.num_tors())) {
  auto& m = net_.sim().metrics();
  deploys_rejected_ = &m.counter("controller.deploys_rejected");
  txn_prepares_ = &m.counter("controller.txn_prepares");
  txn_commits_ = &m.counter("controller.txn_commits");
  txn_aborts_ = &m.counter("controller.txn_aborts");
  txn_rollbacks_ = &m.counter("controller.txn_rollbacks");
  fenced_stale_ = &m.counter("controller.fenced_stale_installs");
  resyncs_ = &m.counter("controller.resyncs");
  net_.set_rotation_hook(
      [this](NodeId n, std::int64_t abs) { on_boundary(n, abs); });
}

Controller::~Controller() { net_.set_rotation_hook(nullptr); }

std::int64_t Controller::deploys_rejected() const {
  return deploys_rejected_->value();
}
std::int64_t Controller::txn_commits() const { return txn_commits_->value(); }
std::int64_t Controller::txn_aborts() const { return txn_aborts_->value(); }
std::int64_t Controller::txn_rollbacks() const {
  return txn_rollbacks_->value();
}
std::int64_t Controller::fenced_stale_installs() const {
  return fenced_stale_->value();
}
std::int64_t Controller::resyncs() const { return resyncs_->value(); }

void Controller::attach_quorum(ControllerQuorum* q) {
  quorum_ = q;
  if (q != nullptr && stale_term_ == nullptr) {
    // Registered only when a quorum actually exists, so replicas=1 runs
    // export exactly the pre-quorum registry.
    stale_term_ = &net_.sim().metrics().counter(
        "controller.stale_term_rejections");
  }
}

std::uint64_t Controller::current_term() const {
  return quorum_ != nullptr ? quorum_->term() : 0;
}

std::int64_t Controller::stale_term_rejections() const {
  return stale_term_ != nullptr ? stale_term_->value() : 0;
}

bool Controller::admit_term(NodeId n, std::uint64_t t) {
  if (quorum_ == nullptr) return true;
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  if (t < ag.term_seen) {
    stale_term_->inc();
    auto& sim = net_.sim();
    if (auto* tr = sim.recorder()) {
      tr->term_fence(sim.now(), n, static_cast<std::int64_t>(t),
                     static_cast<std::int64_t>(ag.term_seen));
    }
    return false;
  }
  ag.term_seen = t;
  return true;
}

bool Controller::txn_in_flight() const { return txn_ != nullptr && !txn_->done; }

bool Controller::compile_schedule(const std::vector<optics::Circuit>& circuits,
                                  SliceId period,
                                  optics::Schedule& out) const {
  optics::Schedule sched(net_.num_tors(), net_.schedule().uplinks(), period,
                         net_.schedule().slice_duration());
  for (const auto& c : circuits) {
    if (!sched.add_circuit(c)) {
      last_error_ = "infeasible circuit (" + std::to_string(c.a) + ":" +
                    std::to_string(c.a_port) + " <-> " + std::to_string(c.b) +
                    ":" + std::to_string(c.b_port) + " @ts " +
                    std::to_string(c.slice) + ")";
      return false;
    }
  }
  out = std::move(sched);
  return true;
}

bool Controller::control_plane_up() {
  if (crashed_) {
    last_error_ = "control plane unavailable (controller crashed)";
    deploys_rejected_->inc();
    return false;
  }
  if (quorum_ != nullptr && quorum_->started() && !quorum_->ctl_is_leader()) {
    // This replica is not (or no longer) the elected leader: a non-leader
    // accepting a deploy is exactly the split-brain write path.
    last_error_ = "control plane unavailable (replica is not the leader)";
    deploys_rejected_->inc();
    return false;
  }
  if (!deploy_fail_) return true;
  last_error_ = "control plane unavailable (injected fault)";
  deploys_rejected_->inc();
  return false;
}

bool Controller::deploy_topo(const std::vector<optics::Circuit>& circuits,
                             SliceId period, SimTime reconfig_delay) {
  last_error_.clear();
  auto& sim = net_.sim();
  const auto note = [&sim](bool accepted) {
    if (auto* tr = sim.recorder()) {
      tr->control_deploy(sim.now(), /*routing=*/false, accepted);
    }
  };
  if (!control_plane_up()) {
    note(false);
    return false;
  }
  optics::Schedule sched;
  if (!compile_schedule(circuits, period, sched)) {
    note(false);
    return false;
  }
  auto txn = std::make_unique<Txn>();
  txn->has_topo = true;
  txn->topo = std::move(sched);
  txn->reconfig_delay = reconfig_delay;
  const bool issued = begin_txn(std::move(txn));
  sim.metrics().counter("controller.deploys", {{"kind", "topo"}}).inc();
  note(issued);
  return issued;
}

bool Controller::check_path(const Path& path,
                            const optics::Schedule& sched) const {
  if (!path.valid()) {
    last_error_ = "empty or invalid path";
    return false;
  }
  for (std::size_t i = 0; i < path.hops.size(); ++i) {
    const PathHop& h = path.hops[i];
    if (h.egress == kElectricalEgress) {
      if (net_.electrical() == nullptr) {
        last_error_ = "path uses electrical fabric but none is configured";
        return false;
      }
      continue;
    }
    const SliceId s = h.dep_slice == kAnySlice ? kAnySlice : h.dep_slice;
    auto peer = sched.peer(h.node, h.egress, s);
    if (!peer) {
      last_error_ = "no circuit at node " + std::to_string(h.node) +
                    " port " + std::to_string(h.egress) + " slice " +
                    std::to_string(s);
      return false;
    }
    const NodeId expect =
        (i + 1 < path.hops.size()) ? path.hops[i + 1].node : path.dst;
    if (peer->node != expect) {
      last_error_ = "circuit at node " + std::to_string(h.node) +
                    " leads to " + std::to_string(peer->node) + ", not " +
                    std::to_string(expect);
      return false;
    }
  }
  return true;
}

bool Controller::validate_routing(const std::vector<Path>& paths,
                                  const optics::Schedule* validate_against) {
  last_error_.clear();
  if (!control_plane_up()) return false;
  const optics::Schedule& sched =
      validate_against != nullptr ? *validate_against : net_.schedule();
  for (const auto& p : paths) {
    if (!check_path(p, sched)) return false;
  }
  return true;
}

bool Controller::compile_routing(
    const std::vector<Path>& paths, LookupMode lookup, int priority,
    std::vector<std::vector<TftEntry>>& out) const {
  // Merge per-(node, match) action sets so parallel paths become one
  // multipath entry. Identical actions merge by summing their weights.
  using Key = std::tuple<NodeId, SliceId, NodeId, NodeId>;
  std::map<Key, std::vector<TftAction>> merged;

  auto add_action = [&merged](NodeId node, SliceId arr, NodeId src,
                              NodeId dst, TftAction action) {
    auto& actions = merged[{node, arr, src, dst}];
    for (auto& existing : actions) {
      if (existing.hops.size() == action.hops.size()) {
        bool same = true;
        for (std::size_t i = 0; i < existing.hops.size(); ++i) {
          if (existing.hops[i].egress != action.hops[i].egress ||
              existing.hops[i].dep_slice != action.hops[i].dep_slice) {
            same = false;
            break;
          }
        }
        if (same) {
          existing.weight += action.weight;
          return;
        }
      }
    }
    actions.push_back(std::move(action));
  };

  for (const auto& path : paths) {
    if (lookup == LookupMode::SourceRouting) {
      TftAction action;
      action.weight = path.weight;
      action.hops.reserve(path.hops.size());
      for (const auto& h : path.hops) {
        action.hops.push_back(net::SourceHop{h.egress, h.dep_slice});
      }
      add_action(path.hops.front().node, path.start_slice, path.src, path.dst,
                 std::move(action));
      continue;
    }
    // Per-hop lookup: one single-hop entry at every node on the path. The
    // first hop matches the path's source explicitly (so per-source policy
    // like VLB spraying applies only to locally originated traffic); transit
    // hops use a source wildcard.
    SliceId arr = path.start_slice;
    for (std::size_t i = 0; i < path.hops.size(); ++i) {
      const PathHop& h = path.hops[i];
      TftAction action;
      action.weight = path.weight;
      action.hops.push_back(net::SourceHop{h.egress, h.dep_slice});
      const NodeId src_match = (i == 0) ? path.src : kInvalidNode;
      add_action(h.node, arr, src_match, path.dst, std::move(action));
      // The next node sees the packet in the slice this hop departed in
      // (fabric latency is far below a slice); wildcard stays wildcard.
      arr = h.dep_slice;
    }
  }

  out.assign(static_cast<std::size_t>(net_.num_tors()), {});
  for (auto& [key, actions] : merged) {
    const auto [node, arr, src, dst] = key;
    TftEntry entry;
    entry.match = TftMatch{arr, src, dst};
    entry.actions = std::move(actions);
    entry.priority = priority;
    out[static_cast<std::size_t>(node)].push_back(std::move(entry));
  }
  return true;
}

bool Controller::deploy_routing(const std::vector<Path>& paths,
                                LookupMode lookup, MultipathMode multipath,
                                int priority,
                                const optics::Schedule* validate_against) {
  auto& sim = net_.sim();
  if (!validate_routing(paths, validate_against)) {
    if (auto* tr = sim.recorder()) {
      tr->control_deploy(sim.now(), /*routing=*/true, false);
    }
    return false;
  }
  auto txn = std::make_unique<Txn>();
  txn->has_routing = true;
  compile_routing(paths, lookup, priority, txn->entries);
  txn->multipath = multipath;
  const bool issued = begin_txn(std::move(txn));
  sim.metrics().counter("controller.deploys", {{"kind", "routing"}}).inc();
  if (auto* tr = sim.recorder()) {
    tr->control_deploy(sim.now(), /*routing=*/true, issued);
  }
  return issued;
}

bool Controller::deploy_update(const optics::Schedule& sched,
                               const std::vector<Path>& paths,
                               LookupMode lookup, MultipathMode multipath,
                               int priority, int clear_priority,
                               SimTime reconfig_delay, TxnDoneFn on_done) {
  last_error_.clear();
  if (!control_plane_up()) return false;
  for (const auto& p : paths) {
    if (!check_path(p, sched)) return false;
  }
  auto txn = std::make_unique<Txn>();
  txn->has_topo = true;
  txn->topo = sched;
  txn->reconfig_delay = reconfig_delay;
  txn->has_routing = true;
  compile_routing(paths, lookup, priority, txn->entries);
  txn->multipath = multipath;
  txn->clear_prio = clear_priority;
  txn->on_done = std::move(on_done);
  const bool issued = begin_txn(std::move(txn));
  net_.sim().metrics().counter("controller.deploys", {{"kind", "update"}})
      .inc();
  if (auto* tr = net_.sim().recorder()) {
    tr->control_deploy(net_.sim().now(), /*routing=*/true, issued);
  }
  return issued;
}

SimTime Controller::prepare_timeout() const {
  // Covers two full southbound round trips plus the injected controller
  // latency, with a floor so slow-slice fabrics don't abort spuriously.
  const SimTime rtt = sb_.config().latency * 4;
  return deploy_delay_ + std::max({rtt, net_.schedule().slice_duration() * 2,
                                   SimTime::micros(200)});
}

bool Controller::begin_txn(std::unique_ptr<Txn> txn) {
  auto& sim = net_.sim();
  if (txn_ && !txn_->done) abort_txn("superseded by a newer deploy");
  txn->epoch = ++epoch_seq_;
  txn->issued_at = sim.now();
  txn->acked.assign(agents_.size(), 0);
  txn->commit_acked.assign(agents_.size(), 0);
  if (txn->has_routing) {
    for (auto& node_entries : txn->entries) {
      for (auto& e : node_entries) e.epoch = txn->epoch;
    }
  }
  txn->term = current_term();
  const std::uint64_t e = txn->epoch;
  const std::uint64_t tm = txn->term;
  txn_ = std::move(txn);
  txn_prepares_->inc();
  if (auto* tr = sim.recorder()) {
    tr->txn_prepare(sim.now(), static_cast<std::int64_t>(e),
                    net_.num_tors());
  }
  if (quorum_ != nullptr) {
    // Prepare record: lets a failover leader see the epoch was in flight
    // even if no ToR report survives. Fire-and-forget — prepares need no
    // majority, only commits do.
    quorum_->replicate(ControllerQuorum::RecKind::Prepare, e, nullptr);
  }

  if (!fencing_) {
    // Legacy scatter mode: fire-and-forget installs that apply on arrival,
    // no quorum, no rollback — the half-programmed-fabric baseline. The
    // fabric swap happens controller-side exactly as the monolithic deploy
    // did.
    txn_->done = true;
    txn_->committed = true;
    committed_epoch_ = e;
    txn_commits_->inc();
    if (quorum_ != nullptr) {
      // Legacy mode skips the majority gate by design (it is the unsafe
      // baseline), but the decision is still logged.
      quorum_->replicate(ControllerQuorum::RecKind::Commit, e, nullptr);
    }
    committed_ = std::move(txn_);
    if (auto* tr = sim.recorder()) {
      tr->txn_commit(sim.now(), static_cast<std::int64_t>(e),
                     /*activation_abs=*/-1);
    }
    if (committed_->has_topo) {
      net_.reconfigure(committed_->topo,
                       committed_->reconfig_delay + deploy_delay_);
    }
    for (NodeId n = 0; n < net_.num_tors(); ++n) {
      if (deploy_delay_ > SimTime::zero()) {
        sim.schedule_in(
            deploy_delay_,
            [this, e, tm, n]() {
              sb_.send(n, [this, e, tm, n]() { on_install(e, tm, n); },
                       "sb.install");
            },
            "sb.install");
      } else {
        sb_.send(n, [this, e, tm, n]() { on_install(e, tm, n); },
                 "sb.install");
      }
    }
    if (committed_->on_done) committed_->on_done(true);
    return true;
  }

  for (NodeId n = 0; n < net_.num_tors(); ++n) {
    // An inline NACK can abort (or an inline full quorum can commit) the
    // transaction mid-scatter; stop sending installs for a decided epoch.
    if (txn_ == nullptr || txn_->done || txn_->epoch != e) break;
    if (deploy_delay_ > SimTime::zero()) {
      sim.schedule_in(
          deploy_delay_,
          [this, e, tm, n]() {
            sb_.send(n, [this, e, tm, n]() { on_install(e, tm, n); },
                     "sb.install");
          },
          "sb.install");
    } else {
      sb_.send(n, [this, e, tm, n]() { on_install(e, tm, n); },
               "sb.install");
    }
  }
  if (committed_ && committed_->epoch == e) return true;  // committed inline
  if (txn_ == nullptr || txn_->epoch != e || txn_->done) {
    return false;  // aborted inline (NACK or revalidation failure)
  }
  txn_->timeout = sim.schedule_in(
      prepare_timeout(),
      [this, e]() {
        if (txn_ && !txn_->done && txn_->epoch == e && !txn_->committed) {
          abort_txn("prepare timeout (partial install quorum)");
        }
      },
      "sb.txn_timeout");
  return true;
}

void Controller::on_install(std::uint64_t e, std::uint64_t tm, NodeId n) {
  if (!admit_term(n, tm)) return;  // deposed leader's install: dead on arrival
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  if (!fencing_) {
    // Unfenced agents trust whatever arrives: a delayed duplicate from a
    // superseded epoch happily reinstalls stale state. Payload must still
    // exist controller-side to model the message contents.
    if (committed_ && committed_->epoch == e) {
      ag.staged_epoch = 0;
      ag.committed_epoch = e;
      apply_node(n);
    }
    return;
  }
  // Fencing watermark: installs at or below the agent's committed epoch are
  // stale duplicates; installs from an epoch that is no longer in flight
  // belong to an aborted or superseded transaction. Both are rejected.
  if (e <= ag.committed_epoch || txn_ == nullptr || txn_->done ||
      txn_->epoch != e) {
    fence(n, e);
    return;
  }
  if (ag.install_fail) {
    sb_.send(n, [this, e, n]() { on_ack(e, n, false); }, "sb.ack");
    return;
  }
  ag.staged_epoch = e;
  ag.pending_apply = false;
  sb_.send(n, [this, e, n]() { on_ack(e, n, true); }, "sb.ack");
}

void Controller::on_ack(std::uint64_t e, NodeId n, bool ok) {
  if (crashed_) return;  // a crashed controller hears nothing
  if (txn_ == nullptr || txn_->done || txn_->epoch != e) return;
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->txn_ack(sim.now(), n, static_cast<std::int64_t>(e), ok);
  }
  if (!ok) {
    abort_txn("ToR " + std::to_string(n) + " rejected install (epoch " +
              std::to_string(e) + ")");
    return;
  }
  auto& acked = txn_->acked[static_cast<std::size_t>(n)];
  if (acked) return;  // duplicate ack
  acked = 1;
  if (++txn_->acks == net_.num_tors()) decide_commit();
}

void Controller::decide_commit() {
  auto& sim = net_.sim();
  // With a multi-replica quorum, the prepare timeout stays armed until the
  // commit record majority-replicates: a minority-partitioned leader must
  // eventually abort, not hang committed-in-name-only.
  if (quorum_ == nullptr || !quorum_->needs_majority()) {
    txn_->timeout.cancel();
  }
  // Commit-time revalidation: the fabric may have changed while installs
  // were in flight (a port failed mid-delay). Committing would swap in a
  // schedule with circuits on dark fiber; abort and let the caller replan.
  if (sim.now() > txn_->issued_at && txn_->has_topo) {
    for (const auto& c : txn_->topo.circuits()) {
      if (net_.optical().port_failed(c.a, c.a_port) ||
          net_.optical().port_failed(c.b, c.b_port)) {
        abort_txn("port " + std::to_string(c.a) + ":" +
                  std::to_string(c.a_port) + " <-> " + std::to_string(c.b) +
                  ":" + std::to_string(c.b_port) +
                  " failed mid-transaction");
        return;
      }
    }
  }
  if (quorum_ != nullptr && quorum_->needs_majority()) {
    // The commit decision is durable only once a majority of replicas log
    // it; the southbound commit fan-out waits for that ack. If leadership
    // is lost first the callback is dropped and the prepare timeout aborts.
    const std::uint64_t e = txn_->epoch;
    quorum_->replicate(ControllerQuorum::RecKind::Commit, e, [this, e]() {
      if (txn_ != nullptr && !txn_->done && txn_->epoch == e) finish_commit();
    });
    return;
  }
  // A single-replica quorum still logs the decision (inline, no ack to
  // wait for) so restart()'s log_commits gate sees it.
  if (quorum_ != nullptr) {
    quorum_->replicate(ControllerQuorum::RecKind::Commit, txn_->epoch,
                       nullptr);
  }
  finish_commit();
}

void Controller::finish_commit() {
  auto& sim = net_.sim();
  txn_->timeout.cancel();
  txn_->committed = true;
  txn_->done = true;
  committed_epoch_ = txn_->epoch;
  txn_commits_->inc();
  // Activation: a transaction decided inside the issuing event on an ideal
  // channel applies immediately (the legacy synchronous swap); an
  // asynchronous commit in calendar mode arms the swap at a slice boundary
  // far enough out for the commit messages to land, so every node
  // activates on the same slice edge.
  const bool async_commit = sim.now() > txn_->issued_at;
  // Boundary activation needs rotation timers; on a never-started network
  // (unit-test deploys) the boundary would never come, so apply directly.
  if (async_commit && net_.started() && net_.config().calendar_mode &&
      net_.schedule().period() > 1) {
    txn_->activation_abs = net_.schedule().abs_slice_at(sim.now()) + 2;
  } else {
    txn_->activation_abs = -1;
  }
  if (auto* tr = sim.recorder()) {
    tr->txn_commit(sim.now(), static_cast<std::int64_t>(txn_->epoch),
                   txn_->activation_abs);
  }
  auto done_cb = std::move(txn_->on_done);
  committed_ = std::move(txn_);
  apply_fabric();
  for (NodeId n = 0; n < net_.num_tors(); ++n) send_commit(n);
  if (committed_->commit_acks < net_.num_tors()) {
    const SimTime interval =
        std::max(sb_.config().latency * 2, SimTime::micros(10));
    committed_->commit_timer = sim.schedule_every(
        sim.now() + interval, interval, [this]() { retransmit_commits(); },
        "sb.commit_retx");
  }
  if (done_cb) done_cb(true);
}

void Controller::apply_fabric() {
  if (!committed_->has_topo) return;
  auto& sim = net_.sim();
  SimTime to_activation = SimTime::zero();
  if (committed_->activation_abs >= 0) {
    const SimTime at = net_.schedule().slice_start(committed_->activation_abs);
    if (at > sim.now()) to_activation = at - sim.now();
  }
  net_.reconfigure(committed_->topo,
                   committed_->reconfig_delay + to_activation);
}

void Controller::send_commit(NodeId n) {
  const std::uint64_t e = committed_->epoch;
  // Stamped with the *current* term, not the issuing one: a failover leader
  // completing a predecessor's partial commit sends it under its own term.
  const std::uint64_t tm = current_term();
  sb_.send(n, [this, e, tm, n]() { on_commit(e, tm, n); }, "sb.commit");
}

void Controller::on_commit(std::uint64_t e, std::uint64_t tm, NodeId n) {
  if (!admit_term(n, tm)) return;
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  if (ag.committed_epoch == e) {
    // Duplicate commit (retransmission overlap): just re-ack.
    sb_.send(n, [this, e, n]() { on_commit_ack(e, n); }, "sb.commit_ack");
    return;
  }
  if (e < ag.committed_epoch || ag.staged_epoch != e ||
      committed_ == nullptr || committed_->epoch != e) {
    fence(n, e);  // commit for an epoch this agent never staged / rolled back
    return;
  }
  ag.committed_epoch = e;  // watermark up: stale installs fence from now on
  ag.staged_epoch = 0;
  if (committed_->activation_abs < 0) {
    apply_node(n);
  } else {
    ag.pending_apply = true;  // the rotation hook applies at the boundary
  }
  sb_.send(n, [this, e, n]() { on_commit_ack(e, n); }, "sb.commit_ack");
}

void Controller::on_commit_ack(std::uint64_t e, NodeId n) {
  if (committed_ == nullptr || committed_->epoch != e) return;
  auto& acked = committed_->commit_acked[static_cast<std::size_t>(n)];
  if (acked) return;
  acked = 1;
  if (++committed_->commit_acks == net_.num_tors()) {
    committed_->commit_timer.cancel();
  }
}

void Controller::retransmit_commits() {
  if (committed_ == nullptr || crashed_) return;
  if (++committed_->commit_rounds > kMaxCommitRounds) {
    committed_->commit_timer.cancel();
    return;  // straggler stays exposed; the mixed-epoch metric shows it
  }
  for (NodeId n = 0; n < net_.num_tors(); ++n) {
    if (!committed_->commit_acked[static_cast<std::size_t>(n)]) {
      send_commit(n);
    }
  }
}

void Controller::apply_node(NodeId n) {
  Txn& t = *committed_;
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  // Silent install failure (gray fault): the agent acked the install and the
  // commit, its committed-epoch watermark advanced — but nothing lands in
  // the forwarding plane. note_node_epoch is deliberately skipped too: the
  // network keeps observing the old forwarding epoch, which is exactly the
  // claim-vs-behavior divergence the health scanner localizes.
  if (ag.silent_install) {
    ag.pending_apply = false;
    return;
  }
  auto& tor = net_.tor(n);
  if (t.clear_prio != kNoClear) tor.tft().remove_priority(t.clear_prio);
  if (t.has_routing) {
    for (const TftEntry& e : t.entries[static_cast<std::size_t>(n)]) {
      tor.tft().add(e);
    }
    tor.set_multipath(t.multipath);
  }
  ag.pending_apply = false;
  net_.note_node_epoch(n, t.epoch);
}

void Controller::on_boundary(NodeId n, std::int64_t abs_slice) {
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  if (!ag.pending_apply || committed_ == nullptr) return;
  if (abs_slice >= committed_->activation_abs &&
      ag.committed_epoch == committed_->epoch) {
    apply_node(n);
  }
}

void Controller::abort_txn(const std::string& why) {
  auto& sim = net_.sim();
  auto t = std::move(txn_);
  t->timeout.cancel();
  t->done = true;
  last_error_ = why;
  txn_aborts_->inc();
  if (auto* tr = sim.recorder()) {
    tr->txn_abort(sim.now(), static_cast<std::int64_t>(t->epoch), t->acks);
  }
  if (quorum_ != nullptr && quorum_->ctl_is_leader()) {
    quorum_->replicate(ControllerQuorum::RecKind::Abort, t->epoch, nullptr);
  }
  // Roll every staged agent back to its last committed epoch. The abort
  // travels the same lossy channel; an agent the abort never reaches keeps
  // its staged state until a later install or resync fences it.
  if (!crashed_) {
    const std::uint64_t tm = current_term();
    for (NodeId n = 0; n < net_.num_tors(); ++n) {
      if (agents_[static_cast<std::size_t>(n)].staged_epoch == t->epoch) {
        const std::uint64_t e = t->epoch;
        sb_.send(
            n,
            [this, e, tm, n]() {
              if (!admit_term(n, tm)) return;
              if (agents_[static_cast<std::size_t>(n)].staged_epoch == e) {
                rollback_agent(n);
              }
            },
            "sb.abort");
      }
    }
  }
  if (t->on_done) t->on_done(false);
}

void Controller::rollback_agent(NodeId n) {
  Agent& ag = agents_[static_cast<std::size_t>(n)];
  const std::uint64_t e = ag.staged_epoch;
  ag.staged_epoch = 0;
  ag.pending_apply = false;
  txn_rollbacks_->inc();
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->txn_rollback(sim.now(), n, static_cast<std::int64_t>(e));
  }
}

void Controller::fence(NodeId n, std::uint64_t stale_epoch) {
  fenced_stale_->inc();
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->txn_fence(
        sim.now(), n, static_cast<std::int64_t>(stale_epoch),
        static_cast<std::int64_t>(
            agents_[static_cast<std::size_t>(n)].committed_epoch));
  }
}

void Controller::crash() {
  if (crashed_) return;
  crashed_ = true;
  auto& sim = net_.sim();
  // The in-flight prepare dies with the controller. No abort messages go
  // out (a dead controller sends nothing) — staged agents are cleaned up by
  // the restart resync — but the issuer's callback observes the failure so
  // its retry machinery arms.
  if (txn_ && !txn_->done) {
    auto t = std::move(txn_);
    t->timeout.cancel();
    t->done = true;
    last_error_ = "control plane unavailable (controller crashed)";
    txn_aborts_->inc();
    if (auto* tr = sim.recorder()) {
      tr->txn_abort(sim.now(), static_cast<std::int64_t>(t->epoch), t->acks);
    }
    if (t->on_done) t->on_done(false);
  }
  // The commit retransmitter is controller-side state; the committed
  // payload itself models the agents' staged copies and survives (pending
  // boundary activations still fire — the data plane outlives its
  // controller).
  if (committed_) committed_->commit_timer.cancel();
  // Volatile memory lost: the epoch counter and commit watermark must be
  // reconstructed from per-ToR reports at restart.
  epoch_seq_ = 0;
  committed_epoch_ = 0;
  if (auto* tr = sim.recorder()) tr->ctl_crash(sim.now());
}

void Controller::restart() {
  if (!crashed_) return;
  crashed_ = false;
  resyncs_->inc();
  // State resync from per-ToR reports (modeled synchronously; the outage
  // cost is the crash window itself): the committed epoch is the highest
  // any agent runs, and the epoch counter resumes above everything any
  // agent has ever *seen*, so a reissued epoch can never collide with a
  // fenceable one.
  std::uint64_t max_committed = 0;
  std::uint64_t max_seen = 0;
  for (const Agent& ag : agents_) {
    max_committed = std::max(max_committed, ag.committed_epoch);
    max_seen = std::max({max_seen, ag.committed_epoch, ag.staged_epoch});
  }
  committed_epoch_ = max_committed;
  epoch_seq_ = std::max(epoch_seq_, max_seen);
  if (quorum_ != nullptr) {
    epoch_seq_ = std::max(epoch_seq_, quorum_->max_logged_epoch());
  }
  std::int64_t stragglers = 0;
  for (const Agent& ag : agents_) {
    if (max_committed > 0 && ag.committed_epoch < max_committed) {
      ++stragglers;
    }
  }
  if (auto* tr = net_.sim().recorder()) {
    tr->ctl_resync(net_.sim().now(),
                   static_cast<std::int64_t>(max_committed), stragglers);
  }
  // Term-aware writer gate: a replica restarting mid-election holds no
  // lease on the fabric — it recomputes its epoch state read-only and
  // leaves the resync to the elected leader's takeover. In particular it
  // must never complete a partial commit its stale-term log remembers but
  // the quorum never acknowledged.
  if (quorum_ != nullptr && !quorum_->ctl_is_leader()) return;
  const std::uint64_t tm = current_term();
  for (NodeId n = 0; n < net_.num_tors(); ++n) {
    Agent& ag = agents_[static_cast<std::size_t>(n)];
    if (ag.staged_epoch == 0) continue;
    if (ag.staged_epoch == max_committed && committed_ != nullptr &&
        committed_->epoch == max_committed &&
        (quorum_ == nullptr || quorum_->log_commits(max_committed))) {
      // Some nodes committed this epoch before the crash: complete it on
      // the stragglers rather than leaving the fabric mixed. Under a
      // quorum the completion additionally requires a majority-held Commit
      // record — a ToR report alone could be the dead leader's partial
      // fan-out.
      send_commit(n);
    } else {
      // Presumed abort: staged-but-uncommitted state rolls back.
      const std::uint64_t e = ag.staged_epoch;
      sb_.send(
          n,
          [this, e, tm, n]() {
            if (!admit_term(n, tm)) return;
            if (agents_[static_cast<std::size_t>(n)].staged_epoch == e) {
              rollback_agent(n);
            }
          },
          "sb.abort");
    }
  }
}

void Controller::quorum_takeover(std::uint64_t term) {
  auto& sim = net_.sim();
  // An in-flight prepare issued under a lower term dies locally: its
  // commit record can never majority-replicate now, and the resync below
  // rolls back whatever it staged.
  if (txn_ != nullptr && !txn_->done && txn_->term < term) {
    auto t = std::move(txn_);
    t->timeout.cancel();
    t->done = true;
    last_error_ = "superseded by quorum failover (term " +
                  std::to_string(term) + ")";
    txn_aborts_->inc();
    if (auto* tr = sim.recorder()) {
      tr->txn_abort(sim.now(), static_cast<std::int64_t>(t->epoch), t->acks);
    }
    if (t->on_done) t->on_done(false);
  }
  if (committed_ != nullptr) committed_->commit_timer.cancel();
  crashed_ = false;
  resyncs_->inc();
  // Same resync as restart(), but the epoch floor also covers everything
  // the replicated log ever recorded — the dead leader may have logged an
  // epoch no surviving ToR report mentions.
  std::uint64_t max_committed = 0;
  std::uint64_t max_seen = 0;
  for (const Agent& ag : agents_) {
    max_committed = std::max(max_committed, ag.committed_epoch);
    max_seen = std::max({max_seen, ag.committed_epoch, ag.staged_epoch});
  }
  committed_epoch_ = max_committed;
  epoch_seq_ = std::max({epoch_seq_, max_seen, quorum_->max_logged_epoch()});
  std::int64_t stragglers = 0;
  for (const Agent& ag : agents_) {
    if (max_committed > 0 && ag.committed_epoch < max_committed) {
      ++stragglers;
    }
  }
  if (auto* tr = sim.recorder()) {
    tr->ctl_resync(sim.now(), static_cast<std::int64_t>(max_committed),
                   stragglers);
  }
  for (NodeId n = 0; n < net_.num_tors(); ++n) {
    Agent& ag = agents_[static_cast<std::size_t>(n)];
    if (ag.staged_epoch == 0) {
      // Nothing staged, but the term watermark must still rise so the
      // deposed leader's delayed installs/commits fence on arrival.
      sb_.send(n, [this, term, n]() { (void)admit_term(n, term); },
               "sb.term_bump");
      continue;
    }
    if (ag.staged_epoch == max_committed && committed_ != nullptr &&
        committed_->epoch == max_committed &&
        quorum_->log_commits(max_committed)) {
      // The quorum logged the commit decision: every ToR acked the
      // prepare, so completing it on the stragglers is safe under the new
      // term.
      send_commit(n);
    } else {
      // Presumed abort: the old leader may have started a commit fan-out
      // that never reached a majority-logged decision.
      const std::uint64_t e = ag.staged_epoch;
      sb_.send(
          n,
          [this, e, term, n]() {
            if (!admit_term(n, term)) return;
            if (agents_[static_cast<std::size_t>(n)].staged_epoch == e) {
              rollback_agent(n);
            }
          },
          "sb.abort");
    }
  }
}

bool Controller::add(const TftEntry& entry, NodeId node) {
  if (node < 0 || node >= net_.num_tors()) {
    last_error_ = "bad node id";
    return false;
  }
  net_.tor(node).tft().add(entry);
  return true;
}

void Controller::clear_routing() {
  for (NodeId n = 0; n < net_.num_tors(); ++n) {
    net_.tor(n).tft().clear();
  }
}

}  // namespace oo::core
