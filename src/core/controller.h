// Optical controller (§4.1): sanity-checks user-programmed topologies and
// routing paths, compiles node-level circuits into the OCS schedule and
// paths into time-flow table entries, and deploys both. deploy_routing is
// applied before deploy_topo in TA updates so higher-priority routes overlay
// existing ones ahead of the physical reconfiguration (Fig. 5b).
//
// Deployment is a transactional, epoch-stamped two-phase protocol over the
// modeled southbound channel (core/southbound.h):
//
//   prepare  -> per-ToR install messages stage the update at each agent
//   acks     -> an all-node quorum of install acks arms the commit
//   commit   -> each agent applies its staged state at the next slice
//               boundary (calendar mode) or on commit receipt (TA);
//               commits are retransmitted until commit-acked
//   abort    -> on a NACK, a prepare timeout, or commit-time revalidation
//               failure the transaction rolls every staged agent back to
//               the last committed epoch — the fabric is never left
//               half-programmed
//
// Stale installs (delayed duplicates from an already-superseded epoch) are
// fenced by the agents' committed-epoch watermarks. With an ideal channel
// the whole transaction collapses inline — prepare, acks, commit, and apply
// all run synchronously inside the deploy call, consuming no randomness —
// which is exactly the legacy single-swap semantics pre-transactional
// callers (tests, benches, pre-start deployment) rely on.
//
// crash()/restart() model controller failover: a crashed controller rejects
// every deploy and forgets its epoch counter; restart() reconstructs it from
// per-ToR reports (presumed abort: staged-but-uncommitted epochs roll back,
// a partially committed epoch is completed on the stragglers).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/network.h"
#include "core/path.h"
#include "core/southbound.h"
#include "core/time_flow_table.h"
#include "optics/schedule.h"

namespace oo::core {

class ControllerQuorum;

// Compiled routing: node n's entries are tables[n], in the form its ToR
// installs (TimeFlowTable::install). Converts to per-node entry lists, each
// ordered by (arrival slice, source, destination).
struct CompiledRouting {
  std::vector<TimeFlowTable> tables;

  operator std::vector<std::vector<TftEntry>>() const;
};

// Compiles `paths` into the time-flow table entries of each of `num_nodes`
// nodes at `priority`: deploy_routing's compile step, without validation or
// install. Reads the stream once, merging each path straight into the
// tables (TimeFlowTable::merge), so nothing of a path is kept after its sink
// call returns: paths that meet at one node with one match form a multipath
// entry, and identical actions sum their weights in path order.
CompiledRouting compile_routing(PathStream paths, LookupMode lookup,
                                int priority, int num_nodes);

class Controller {
 public:
  explicit Controller(Network& net);
  ~Controller();

  // Outcome callback of a transactional deploy: true = committed on every
  // node, false = aborted (staged state rolled back everywhere).
  using TxnDoneFn = std::function<void(bool committed)>;

  // Builds a Schedule with the network's slicing parameters from node-level
  // circuits. Returns false (and leaves `out` untouched) on any infeasible
  // circuit (port conflict, bad node, slice out of range).
  bool compile_schedule(const std::vector<optics::Circuit>& circuits,
                        SliceId period, optics::Schedule& out) const;

  // deploy_topo([Circuit]) -> bool (Tab. 1). Feasibility-checks and swaps
  // the fabric schedule through a transaction; `reconfig_delay` models the
  // OCS retargeting time (0 for pre-start deployment). Returns false on
  // upfront rejection (control plane down, infeasible circuit); true means
  // the transaction was issued (and, on an ideal channel, already
  // committed).
  bool deploy_topo(const std::vector<optics::Circuit>& circuits,
                   SliceId period, SimTime reconfig_delay = SimTime::zero());

  // deploy_routing([Path], LOOKUP, MULTIPATH) -> bool (Tab. 1). Verifies
  // every hop against the schedule, compiles to time-flow table entries
  // (merging multipath sets), and installs them at `priority`. One pass:
  // each streamed path is checked, then merged. The first invalid path
  // stops the producer, and the deploy fails and installs nothing.
  // `validate_against` supports the TA make-before-break pattern (§4.1):
  // routes computed for a topology that is deployed *after* them validate
  // against that upcoming schedule instead of the live one.
  bool deploy_routing(PathStream paths, LookupMode lookup,
                      MultipathMode multipath, int priority = 0,
                      const optics::Schedule* validate_against = nullptr);
  bool deploy_routing(const std::vector<Path>& paths, LookupMode lookup,
                      MultipathMode multipath, int priority = 0,
                      const optics::Schedule* validate_against = nullptr) {
    return deploy_routing(stream_of(paths), lookup, multipath, priority,
                          validate_against);
  }

  // Combined transactional update (failure recovery's redeploy path): one
  // epoch that atomically clears the `clear_priority` overlay, installs
  // `paths` at `priority`, and swaps the fabric to `sched` — all-or-nothing
  // across every ToR. `on_done` fires once with the outcome (synchronously
  // for inline transactions). Returns false on upfront rejection (control
  // plane down, an invalid path), which installs nothing and never invokes
  // on_done, or when the transaction aborts inline. Reads `paths` in one
  // pass, as deploy_routing does.
  bool deploy_update(const optics::Schedule& sched, PathStream paths,
                     LookupMode lookup, MultipathMode multipath, int priority,
                     int clear_priority, SimTime reconfig_delay,
                     TxnDoneFn on_done = nullptr);
  bool deploy_update(const optics::Schedule& sched,
                     const std::vector<Path>& paths, LookupMode lookup,
                     MultipathMode multipath, int priority,
                     int clear_priority, SimTime reconfig_delay,
                     TxnDoneFn on_done = nullptr) {
    return deploy_update(sched, stream_of(paths), lookup, multipath, priority,
                         clear_priority, reconfig_delay, std::move(on_done));
  }

  // add(Entry, node) -> bool: direct entry installation (debugging, Tab. 1).
  bool add(const TftEntry& entry, NodeId node);

  // Drops all routing state on every node (used before re-deploys in tests).
  void clear_routing();

  // Control-plane fault injection (the SDN-controller robustness dimension):
  // while `deploy_fail` is set every deploy_* is rejected with last_error()
  // explaining why; `deploy_delay` adds controller/southbound latency to
  // every install message, so a deploy issued under it runs the full
  // asynchronous transaction (prepare latency, ack round-trip, commit).
  void set_deploy_delay(SimTime d) { deploy_delay_ = d; }
  SimTime deploy_delay() const { return deploy_delay_; }
  void set_deploy_fail(bool f) { deploy_fail_ = f; }
  bool deploy_fail() const { return deploy_fail_; }
  std::int64_t deploys_rejected() const;

  // ---- southbound channel & epoch state ----
  SouthboundChannel& southbound() { return sb_; }
  const SouthboundChannel& southbound() const { return sb_; }
  // Epoch fencing on (default): full two-phase transaction with quorum,
  // abort/rollback, and stale-install fencing. Off: the legacy scatter mode
  // — installs apply per-node the moment they arrive, no quorum, no abort —
  // kept as the experimental baseline that exposes mixed-epoch forwarding.
  void set_fencing(bool on) { fencing_ = on; }
  bool fencing() const { return fencing_; }

  // Highest epoch committed fabric-wide (0 before the first transactional
  // deploy). After restart() this is reconstructed from per-ToR reports.
  std::uint64_t committed_epoch() const { return committed_epoch_; }
  // Epoch the ToR agent of node n is forwarding on.
  std::uint64_t node_committed_epoch(NodeId n) const {
    return agents_[static_cast<std::size_t>(n)].committed_epoch;
  }
  bool txn_in_flight() const;

  // Per-ToR install-agent fault: while set, node n NACKs every install.
  void set_install_fail(NodeId n, bool fail) {
    agents_[static_cast<std::size_t>(n)].install_fail = fail;
  }

  // Gray twin of set_install_fail: node n's agent acks installs (so the
  // transaction commits fabric-wide) but silently never applies them — its
  // forwarding state and epoch freeze while its committed-epoch watermark
  // keeps advancing. The lie is only visible by comparing the agent's claim
  // (node_committed_epoch) against observed forwarding behavior
  // (Network::node_epoch / mixed-epoch exposure).
  void set_silent_install_fail(NodeId n, bool fail) {
    agents_[static_cast<std::size_t>(n)].silent_install = fail;
  }
  bool silent_install_fail(NodeId n) const {
    return agents_[static_cast<std::size_t>(n)].silent_install;
  }

  // Controller failover. crash() drops the in-flight transaction (its
  // on_done fires with false), forgets the epoch counter, and rejects every
  // deploy until restart(). restart() resyncs: the epoch counter is rebuilt
  // from per-ToR reports, staged-but-uncommitted state is rolled back
  // (presumed abort), and a partially committed epoch is completed on the
  // nodes that missed the commit.
  void crash();
  void restart();
  bool crashed() const { return crashed_; }

  // ---- replicated quorum (core/quorum.h) ----
  // Attaching a quorum makes this controller the engine of its acting
  // replica: deploys are accepted only while that replica leads, commit
  // records must majority-replicate before the southbound commit goes out,
  // and every southbound message is stamped with the leader's term so ToR
  // agents fence stale-term traffic. Never attached for replicas=1 — the
  // single-controller path stays bit-identical.
  void attach_quorum(ControllerQuorum* q);
  ControllerQuorum* quorum() { return quorum_; }
  const ControllerQuorum* quorum() const { return quorum_; }
  // Term every southbound message is currently stamped with (0 = no quorum).
  std::uint64_t current_term() const;
  // Highest term ToR n's agent has observed — its term fencing watermark.
  std::uint64_t node_term(NodeId n) const {
    return agents_[static_cast<std::size_t>(n)].term_seen;
  }
  std::int64_t stale_term_rejections() const;
  // Called by the quorum when leadership lands on a replica other than the
  // previous acting one: re-point the engine, resync every in-flight epoch
  // from the replicated log + per-ToR reports, and raise every agent's term
  // watermark so the deposed leader's delayed messages fence.
  void quorum_takeover(std::uint64_t term);

  // ---- transaction telemetry (registry-backed cells) ----
  std::int64_t txn_commits() const;
  std::int64_t txn_aborts() const;
  std::int64_t txn_rollbacks() const;
  std::int64_t fenced_stale_installs() const;
  std::int64_t resyncs() const;

  const std::string& last_error() const { return last_error_; }

 private:
  struct Agent {
    // Highest epoch this ToR's install agent has staged (0 = nothing
    // staged); cleared on commit, abort, or fencing.
    std::uint64_t staged_epoch = 0;
    // Epoch the ToR is forwarding on — its fencing watermark.
    std::uint64_t committed_epoch = 0;
    bool install_fail = false;   // injected tor_install_fail fault
    // Injected silent_install_fail fault: ack installs, never apply them.
    bool silent_install = false;
    bool pending_apply = false;  // committed, waiting for the boundary
    // Highest quorum term observed (0 until a quorum speaks): messages
    // stamped with a lower term are a deposed leader's and are rejected.
    std::uint64_t term_seen = 0;
  };

  struct Txn;

  bool check_path(const Path& path, const optics::Schedule& sched) const;
  // The deploys' one pass: compile_routing over the stream, each path
  // checked against `sched` (check_path), then merged. The first invalid
  // path stops the producer, and the result is nothing, with last_error()
  // saying why.
  std::optional<CompiledRouting> compile_checked(PathStream paths,
                                                 const optics::Schedule& sched,
                                                 LookupMode lookup,
                                                 int priority) const;
  bool control_plane_up();
  bool begin_txn(std::unique_ptr<Txn> txn);
  void on_install(std::uint64_t epoch, std::uint64_t term, NodeId n);
  void on_ack(std::uint64_t epoch, NodeId n, bool ok);
  void decide_commit();
  void finish_commit();
  void send_commit(NodeId n);
  void on_commit(std::uint64_t epoch, std::uint64_t term, NodeId n);
  void on_commit_ack(std::uint64_t epoch, NodeId n);
  void retransmit_commits();
  void apply_node(NodeId n);
  void apply_fabric();
  void abort_txn(const std::string& why);
  void rollback_agent(NodeId n);
  void fence(NodeId n, std::uint64_t stale_epoch);
  // Term gate for a ToR-bound message stamped with term t: reject (count +
  // trace) when t is below node n's watermark, raise the watermark
  // otherwise. Always admits when no quorum is attached.
  bool admit_term(NodeId n, std::uint64_t t);
  void on_boundary(NodeId n, std::int64_t abs_slice);
  SimTime prepare_timeout() const;

  Network& net_;
  SouthboundChannel sb_;
  mutable std::string last_error_;
  SimTime deploy_delay_ = SimTime::zero();
  bool deploy_fail_ = false;
  bool fencing_ = true;
  bool crashed_ = false;
  std::uint64_t epoch_seq_ = 0;       // last epoch issued (lost on crash)
  std::uint64_t committed_epoch_ = 0; // last epoch committed fabric-wide
  std::vector<Agent> agents_;
  std::unique_ptr<Txn> txn_;        // in-flight prepare
  std::unique_ptr<Txn> committed_;  // last committed payload (agents' copy)
  ControllerQuorum* quorum_ = nullptr;  // attached for replicas > 1 only
  telemetry::Counter* stale_term_ = nullptr;  // registered on attach
  telemetry::Counter* deploys_rejected_;
  telemetry::Counter* txn_prepares_;
  telemetry::Counter* txn_commits_;
  telemetry::Counter* txn_aborts_;
  telemetry::Counter* txn_rollbacks_;
  telemetry::Counter* fenced_stale_;
  telemetry::Counter* resyncs_;
};

}  // namespace oo::core
