// Replicated controller quorum: N controller replicas, a term-based leader
// election, and a replicated epoch log — the control plane's answer to the
// single point of failure the transactional controller (core/controller.h)
// still was. The design is a deliberately small Raft subset, tuned for a
// deterministic discrete-event model:
//
//   - every replica<->replica message (votes, log syncs, acks) crosses the
//     same modeled SouthboundChannel as controller<->ToR traffic, so
//     elections and replication degrade under the identical latency /
//     loss / duplication regime;
//   - election timeouts are randomized per replica from its own
//     derive_rng stream, so a seed fixes the whole election timeline;
//   - log replication is full-log sync on every heartbeat/append (logs
//     hold one small record per prepare/commit/abort, so shipping the
//     suffix wholesale replaces Raft's per-entry matching while keeping
//     its guarantee: a divergent follower converges on the next sync);
//   - votes are gated on log up-to-dateness (last record term, length),
//     which preserves the property failover correctness rests on: any
//     majority-acknowledged Commit record is present in every electable
//     candidate's log.
//
// The Controller object is the *engine* of whichever replica currently
// leads ("acting" replica). The quorum starts with replica 0 as the
// bootstrap leader of term 1 — pre-start deploys work immediately, and no
// randomness is drawn until a failure forces a real election. On failover
// the quorum re-points the engine at the new leader and drives a
// term-aware resync: every in-flight epoch is completed or presumed-
// aborted from the replicated log plus per-ToR reports, and every install
// agent's (term, epoch) watermark is raised so a deposed leader's delayed
// messages fence as stale-term rejections.
//
// A quorum is only constructed for controller_replicas > 1; a replicas=1
// run never touches this file and stays bit-identical to the
// single-controller control plane.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "eventsim/simulator.h"
#include "telemetry/metrics.h"

namespace oo::core {

class Network;
class Controller;

struct QuorumConfig {
  int replicas = 3;
  // Base election timeout; each replica arms its timer at
  // base + U(0, base) from its own derived stream (Raft's randomized
  // timeout, made replayable).
  SimTime election_timeout = SimTime::micros(500);
  // Leader heartbeat / log-sync cadence.
  SimTime heartbeat = SimTime::micros(100);
};

class ControllerQuorum {
 public:
  enum class Role : std::uint8_t { Follower, Candidate, Leader };
  // Replicated epoch-log record kinds: one record per transaction phase.
  enum class RecKind : std::uint8_t { Prepare, Commit, Abort };

  struct LogRec {
    std::uint64_t term = 0;
    std::uint64_t epoch = 0;
    RecKind kind = RecKind::Prepare;
    bool operator==(const LogRec&) const = default;
  };

  ControllerQuorum(Network& net, Controller& ctl, QuorumConfig cfg);
  ~ControllerQuorum();

  // Bootstrap: replica 0 leads term 1, followers arm election timers.
  void start();
  bool started() const { return started_; }

  int replicas() const { return cfg_.replicas; }
  int majority() const { return cfg_.replicas / 2 + 1; }
  // More than one replica => commit records need a majority ack before the
  // southbound commit goes out.
  bool needs_majority() const { return cfg_.replicas > 1; }

  // The acting replica: the one whose engine the Controller currently is.
  int acting() const { return acting_; }
  // Term of the acting replica — the term every southbound message is
  // stamped with.
  std::uint64_t term() const { return reps_[acting_].term; }
  // True when any live replica currently believes it leads (split-brain
  // can briefly make this true for two replicas at different terms).
  bool has_leader() const;
  // True when the Controller's replica is a live leader — the gate on
  // accepting deploys.
  bool ctl_is_leader() const;
  // Highest-term live leader (-1 while an election is in progress).
  int leader() const;

  Role role(int r) const { return reps_[r].role; }
  std::uint64_t replica_term(int r) const { return reps_[r].term; }
  bool replica_dead(int r) const { return reps_[r].dead; }
  bool replica_partitioned(int r) const { return reps_[r].cut; }
  const std::vector<LogRec>& log(int r) const { return reps_[r].log; }
  // Highest log index replica r knows to be majority-held (-1 = none).
  // Committed prefixes must agree across replicas — the safety property
  // the invariant monitor checks every round.
  std::int64_t commit_index(int r) const { return reps_[r].commit_index; }
  std::int64_t log_length() const {
    return static_cast<std::int64_t>(reps_[acting_].log.size());
  }

  // Append a record to the acting leader's log and replicate it.
  // `on_majority` fires once a majority of replicas hold the record
  // (inline for replicas=1 or an ideal channel); it is dropped — never
  // fired — if leadership is lost first. A nullptr callback makes the
  // append fire-and-forget (prepare/abort records).
  void replicate(RecKind kind, std::uint64_t epoch,
                 std::function<void()> on_majority);
  // Does the acting replica's log record a Commit decision for `epoch`?
  // The failover/restart resync completes a partial commit only when this
  // holds; otherwise the epoch is presumed aborted.
  bool log_commits(std::uint64_t epoch) const;
  std::uint64_t max_logged_epoch() const;

  // ---- fault hooks (services::FaultPlan) ----
  // Kill the current leader (highest-term live one). Returns the replica
  // killed, -1 if no leader was alive. The caller owns the revive.
  int kill_leader();
  void kill_replica(int r);
  void revive_replica(int r);
  // Partition replica r off the replica<->replica mesh (ToR legs are
  // unaffected — that asymmetry is exactly what creates split-brain).
  void set_partitioned(int r, bool cut);
  // Corrupt replica r's log tail (the log_divergence fault); the next sync
  // from a leader detects and repairs it.
  void diverge_log(int r);
  // Test hook: install a crafted log (regression tests for term-aware
  // restart resync).
  void force_log(int r, std::vector<LogRec> log);

  // ---- telemetry (registry cells, registered at construction) ----
  std::int64_t elections() const;
  std::int64_t failovers() const;
  std::int64_t step_downs() const;
  std::int64_t log_repairs() const;
  std::int64_t msgs_cut() const;
  // Corrupted-tail records detected (checksum model) and truncated before
  // the replica could ship or stand for election on them.
  std::int64_t log_scrubs() const;

 private:
  struct Replica {
    Role role = Role::Follower;
    std::uint64_t term = 0;
    int voted_for = -1;
    int votes = 0;
    std::vector<LogRec> log;
    std::int64_t commit_index = -1;  // highest majority-held log index
    bool dead = false;
    bool cut = false;  // partitioned off the replica mesh
    // First checksum-flagged log index (diverge_log fault), -1 = clean.
    // Scrubbed (truncated) before the replica ships its log or stands for
    // election, so silent corruption never propagates into a committed
    // prefix; a full-log sync from the leader also clears it.
    std::int64_t corrupt_idx = -1;
    sim::EventHandle election_timer;
    sim::EventHandle heartbeat_timer;
    std::unique_ptr<Rng> rng;  // election-timeout randomization
  };
  // A log entry the acting leader is still gathering acks for.
  struct Pending {
    std::int64_t index = 0;
    int acks = 0;
    std::vector<char> acked;
    std::function<void()> cb;
  };

  // One replica->replica message over the modeled channel. Dropped (and
  // counted) when either endpoint is partitioned or the target is dead.
  bool send_msg(int from, int to, std::function<void()> deliver,
                const char* tag);
  void reset_election_timer(int r);
  void begin_election(int r);
  // Checksum scan before the log leaves the replica: truncate at
  // corrupt_idx (a leader caught shipping a flagged record steps down so a
  // clean replica can lead; committed records survive on the majority).
  void scrub(int r);
  void become_leader(int r);
  void step_down(int r, std::uint64_t higher_term);
  void heartbeat_tick(int r);
  void send_sync(int from, int to);
  void on_sync(int r, int from, std::uint64_t term, std::vector<LogRec> log,
               std::int64_t commit_index);
  void on_sync_ack(int r, int from, std::uint64_t term, std::int64_t len);
  void on_request_vote(int r, int from, std::uint64_t term,
                       std::uint64_t last_term, std::int64_t len);
  void on_vote(int r, int from, std::uint64_t term);
  void note_higher_term(int r, std::uint64_t term);
  void advance_commit(int leader);
  void takeover(int r);

  Network& net_;
  Controller& ctl_;
  QuorumConfig cfg_;
  std::vector<Replica> reps_;
  std::vector<std::int64_t> match_;  // acting leader's per-replica ack len
  std::vector<Pending> pending_;
  int acting_ = 0;
  bool started_ = false;
  telemetry::Counter* elections_;
  telemetry::Counter* term_cell_;
  telemetry::Counter* log_length_;
  telemetry::Counter* failovers_;
  telemetry::Counter* step_downs_;
  telemetry::Counter* log_repairs_;
  telemetry::Counter* msgs_cut_;
  telemetry::Counter* log_scrubs_;
};

}  // namespace oo::core
