// Replicated controller quorum: bootstrap leadership, term-based elections
// under loss, majority-gated commits (a minority-partitioned leader must
// never commit), failover that completes or presumed-aborts an in-flight
// deploy_update, split-brain fencing at the ToR agents, the term-aware
// restart resync, and deterministic leader-kill replay.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.h"
#include "core/quorum.h"
#include "core/southbound.h"
#include "services/fault_plan.h"
#include "services/sync_watchdog.h"

namespace oo::core {
namespace {

using namespace oo::literals;

// Two reconfigure-compatible period-3 matchings over 4 ToRs x 1 uplink
// (the same pair the southbound tests use).
optics::Schedule schedule_a() {
  optics::Schedule s(4, 1, 3, 100_us);
  s.add_circuit({0, 0, 1, 0, 0});
  s.add_circuit({2, 0, 3, 0, 0});
  s.add_circuit({0, 0, 2, 0, 1});
  s.add_circuit({1, 0, 3, 0, 1});
  s.add_circuit({0, 0, 3, 0, 2});
  s.add_circuit({1, 0, 2, 0, 2});
  return s;
}

std::vector<optics::Circuit> circuits_b() {
  return {{0, 0, 2, 0, 0}, {1, 0, 3, 0, 0}, {0, 0, 3, 0, 1},
          {1, 0, 2, 0, 1}, {0, 0, 1, 0, 2}, {2, 0, 3, 0, 2}};
}

optics::Schedule schedule_b() {
  optics::Schedule b(4, 1, 3, 100_us);
  for (const auto& c : circuits_b()) b.add_circuit(c);
  return b;
}

struct QuorumTest : ::testing::Test {
  void make(int replicas, SimTime latency = SimTime::micros(10),
            SimTime election_timeout = SimTime::micros(200),
            SimTime heartbeat = SimTime::micros(50)) {
    q.reset();
    ctl.reset();
    net.reset();
    NetworkConfig cfg;
    cfg.num_tors = 4;
    cfg.calendar_mode = true;
    cfg.seed = 11;
    net = std::make_unique<Network>(cfg, schedule_a(), optics::ocs_emulated());
    ctl = std::make_unique<Controller>(*net);
    SouthboundConfig sb;
    sb.latency = latency;
    ctl->southbound().configure(sb);
    QuorumConfig qc;
    qc.replicas = replicas;
    qc.election_timeout = election_timeout;
    qc.heartbeat = heartbeat;
    q = std::make_unique<ControllerQuorum>(*net, *ctl, qc);
    q->start();
  }

  bool deploy_b(Controller::TxnDoneFn on_done = nullptr) {
    return ctl->deploy_update(schedule_b(), {}, LookupMode::PerHop,
                              MultipathMode::None, 1, 1, SimTime::zero(),
                              std::move(on_done));
  }

  std::unique_ptr<Network> net;
  std::unique_ptr<Controller> ctl;
  std::unique_ptr<ControllerQuorum> q;  // destroyed first: detaches from ctl
};

// Replica 0 bootstraps term 1 without an election; a deploy commits only
// after the Commit record majority-replicates, and both phases land in the
// epoch log.
TEST_F(QuorumTest, BootstrapLeaderCommitsMajorityGatedDeploy) {
  make(3);
  bool done = false, committed = false;
  net->sim().schedule_at(1_ms, [&]() {
    EXPECT_TRUE(deploy_b([&](bool ok) {
      done = true;
      committed = ok;
    }));
  });
  net->sim().run_until(2_ms);
  EXPECT_TRUE(done);
  EXPECT_TRUE(committed);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  EXPECT_EQ(ctl->txn_commits(), 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
    EXPECT_EQ(ctl->node_term(n), 1u);  // installs raised the term watermark
  }
  EXPECT_EQ(q->acting(), 0);
  EXPECT_EQ(q->term(), 1u);
  EXPECT_TRUE(q->ctl_is_leader());
  EXPECT_EQ(q->elections(), 0);  // bootstrap drew no randomness
  EXPECT_EQ(q->log_length(), 2);  // Prepare + Commit
  EXPECT_TRUE(q->log_commits(1));
  // Followers hold the same log (full-log sync replication).
  EXPECT_EQ(q->log(1), q->log(0));
  EXPECT_EQ(q->log(2), q->log(0));
  EXPECT_FALSE(net->epoch_mixed());
}

// replicas=1 with an ideal channel keeps the legacy inline semantics: the
// deploy commits synchronously inside the call, no replica message is ever
// sent, and no election state exists.
TEST_F(QuorumTest, SingleReplicaKeepsInlineSemantics) {
  make(1, SimTime::zero());
  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
  EXPECT_EQ(ctl->committed_epoch(), 1u);  // synchronous: no event loop ran
  EXPECT_EQ(ctl->txn_commits(), 1);
  EXPECT_EQ(ctl->southbound().replica_msgs_sent(), 0);
  EXPECT_EQ(q->elections(), 0);
  EXPECT_EQ(q->term(), 1u);
  EXPECT_TRUE(q->ctl_is_leader());
  EXPECT_EQ(q->log_length(), 2);
  EXPECT_TRUE(q->log_commits(1));
}

// Elections converge to a new leader even when replica<->replica messages
// are lossy: randomized timeouts retry until a majority of votes lands.
TEST_F(QuorumTest, ElectionConvergesUnderMessageLoss) {
  make(3);
  for (int r = 0; r < 3; ++r) ctl->southbound().set_replica_loss(r, 0.3);
  int victim = -1;
  net->sim().schedule_at(1_ms, [&]() { victim = q->kill_leader(); });
  net->sim().run_until(10_ms);
  EXPECT_GE(victim, 0);
  EXPECT_TRUE(q->has_leader());
  EXPECT_GE(q->elections(), 1);
  EXPECT_GE(q->failovers(), 1);
  EXPECT_GE(q->term(), 2u);
  EXPECT_NE(q->leader(), victim);
  EXPECT_TRUE(q->ctl_is_leader());
  EXPECT_FALSE(ctl->crashed());  // the takeover resync revived the engine
}

// A leader partitioned into the minority can stage installs (ToR legs are
// untouched) but its Commit record can never majority-replicate: the deploy
// must abort, and the fabric must end on the old epoch with nothing staged.
TEST_F(QuorumTest, MinorityPartitionedLeaderCannotCommit) {
  make(3);
  bool done = false, committed = false;
  net->sim().schedule_at(900_us, [&]() { q->set_partitioned(0, true); });
  net->sim().schedule_at(1_ms, [&]() {
    EXPECT_TRUE(deploy_b([&](bool ok) {
      done = true;
      committed = ok;
    }));
  });
  net->sim().run_until(4_ms);
  EXPECT_TRUE(done);
  EXPECT_FALSE(committed);  // minority: abort, never commit
  EXPECT_EQ(ctl->txn_commits(), 0);
  EXPECT_GE(ctl->txn_aborts(), 1);
  EXPECT_EQ(ctl->committed_epoch(), 0u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 0u);
  }
  EXPECT_FALSE(net->epoch_mixed());
  // The majority side elected a real leader meanwhile.
  EXPECT_EQ(q->failovers(), 1);
  EXPECT_GE(q->term(), 2u);
  EXPECT_NE(q->leader(), 0);
  EXPECT_GT(q->msgs_cut(), 0);

  // Healing the partition makes the deposed leader step down on the next
  // sync from the higher-term leader.
  q->set_partitioned(0, false);
  net->sim().run_until(5_ms);
  EXPECT_GE(q->step_downs(), 1);
  EXPECT_EQ(q->role(0), ControllerQuorum::Role::Follower);
  EXPECT_EQ(q->replica_term(0), q->term());

  // And the new leader's engine accepts and commits a fresh deploy.
  bool done2 = false, committed2 = false;
  EXPECT_TRUE(deploy_b([&](bool ok) {
    done2 = true;
    committed2 = ok;
  }));
  net->sim().run_until(6_ms);
  EXPECT_TRUE(done2);
  EXPECT_TRUE(committed2);
  EXPECT_EQ(ctl->committed_epoch(), 2u);
  EXPECT_FALSE(net->epoch_mixed());
}

// Failover completes a partially committed epoch: the dead leader's commit
// fan-out missed ToR 0, but the Commit record is majority-logged, so the
// new leader finishes the epoch on the straggler — no mixed fabric, no
// slices forwarded on the dead leader's term.
TEST_F(QuorumTest, FailoverCompletesPartiallyCommittedEpoch) {
  make(3);
  bool done = false, committed = false;
  net->sim().schedule_at(1_ms, [&]() {
    EXPECT_TRUE(deploy_b([&](bool ok) {
      done = true;
      committed = ok;
    }));
  });
  // Commit fan-out goes out at ~1.04ms; ToR 0's copy is lost, then the
  // leader dies before any retransmit can land.
  net->sim().schedule_at(1_ms + 30_us,
                         [&]() { ctl->southbound().set_node_loss(0, 1.0); });
  net->sim().schedule_at(1_ms + 60_us, [&]() { q->kill_replica(0); });
  net->sim().schedule_at(1_ms + 100_us,
                         [&]() { ctl->southbound().set_node_loss(0, 0.0); });
  net->sim().run_until(3_ms);
  EXPECT_TRUE(done);
  EXPECT_TRUE(committed);  // the commit decision predated the crash
  EXPECT_EQ(q->failovers(), 1);
  EXPECT_GE(q->term(), 2u);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
  }
  EXPECT_FALSE(net->epoch_mixed());
  EXPECT_EQ(ctl->txn_commits(), 1);
  // The straggler's completion came from the new leader's term.
  EXPECT_GE(ctl->node_term(0), 2u);
}

// Failover presumed-aborts an epoch whose Commit record never reached a
// majority: every ToR staged it, but the new leader's log has no commit
// decision, so the resync rolls all of them back.
TEST_F(QuorumTest, FailoverPresumedAbortsUnloggedCommit) {
  make(3);
  net->sim().schedule_at(1_ms, [&]() { EXPECT_TRUE(deploy_b()); });
  net->sim().run_until(1500_us);
  EXPECT_EQ(ctl->committed_epoch(), 1u);

  bool done = false, committed = true;
  net->sim().schedule_at(2_ms, [&]() {
    EXPECT_TRUE(deploy_b([&](bool ok) {
      done = true;
      committed = ok;
    }));
  });
  // Cut the leader off the replica mesh after the Prepare record is on the
  // wire but before the Commit record can replicate, then kill it: the
  // in-flight epoch 2 is staged on every ToR yet unlogged.
  net->sim().schedule_at(2_ms + 5_us, [&]() { q->set_partitioned(0, true); });
  net->sim().schedule_at(2_ms + 30_us, [&]() { q->kill_replica(0); });
  net->sim().run_until(4_ms);
  EXPECT_TRUE(done);
  EXPECT_FALSE(committed);
  EXPECT_EQ(q->failovers(), 1);
  EXPECT_FALSE(q->log_commits(2));  // new leader never saw the decision
  EXPECT_GE(ctl->txn_rollbacks(), 4);  // all four staged agents rolled back
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
  }
  EXPECT_FALSE(net->epoch_mixed());

  // Post-failover the control plane is fully writable again; the reissued
  // epoch skips past everything the dead leader ever numbered.
  bool done3 = false, committed3 = false;
  EXPECT_TRUE(deploy_b([&](bool ok) {
    done3 = true;
    committed3 = ok;
  }));
  net->sim().run_until(5_ms);
  EXPECT_TRUE(done3);
  EXPECT_TRUE(committed3);
  EXPECT_EQ(ctl->committed_epoch(), 3u);
  EXPECT_FALSE(net->epoch_mixed());
}

// Split-brain: a partitioned leader that still believes it leads issues a
// deploy whose installs are in flight when the majority elects a new
// leader. The takeover raises every ToR's term watermark first, so the
// deposed leader's delayed installs fence as stale-term rejections and
// never stage a byte.
TEST_F(QuorumTest, SplitBrainStaleLeaderFencedAtToRs) {
  make(3, SimTime::micros(20), SimTime::micros(100), SimTime::micros(30));
  net->sim().schedule_at(1_ms, [&]() { EXPECT_TRUE(deploy_b()); });
  net->sim().run_until(1500_us);
  EXPECT_EQ(ctl->committed_epoch(), 1u);

  bool done = false, committed = true;
  net->sim().schedule_at(2_ms, [&]() {
    q->set_partitioned(0, true);
    // Delay every install the old leader is about to send well past the
    // majority's election window.
    ctl->southbound().set_node_delay(kInvalidNode, 400_us);
  });
  net->sim().schedule_at(2_ms + 10_us, [&]() {
    EXPECT_TRUE(q->ctl_is_leader());  // the deposed leader doesn't know yet
    EXPECT_TRUE(deploy_b([&](bool ok) {
      done = true;
      committed = ok;
    }));
  });
  net->sim().schedule_at(2_ms + 50_us, [&]() {
    ctl->southbound().set_node_delay(kInvalidNode, SimTime::zero());
  });
  net->sim().run_until(3_ms);
  EXPECT_TRUE(done);
  EXPECT_FALSE(committed);
  // All four delayed installs arrived stamped with the dead term and were
  // rejected at the agents; nothing of epoch 2 ever staged.
  EXPECT_EQ(ctl->stale_term_rejections(), 4);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
    EXPECT_GE(ctl->node_term(n), 2u);
  }
  EXPECT_FALSE(net->epoch_mixed());
  EXPECT_EQ(net->mixed_epoch_slices(), 0);

  // Healing the partition demotes the stale leader.
  q->set_partitioned(0, false);
  net->sim().run_until(3500_us);
  EXPECT_GE(q->step_downs(), 1);
  EXPECT_EQ(q->role(0), ControllerQuorum::Role::Follower);
  EXPECT_NE(q->leader(), 0);
}

// Satellite regression: a replica restarting mid-election (no leader
// anywhere) must resync read-only. Even with a crafted log that records a
// Commit decision and ToR reports showing a partially committed epoch, it
// must not push the completion — only an elected leader's takeover may.
TEST_F(QuorumTest, RestartMidElectionDoesNotCompletePartialCommit) {
  make(3);
  net->sim().schedule_at(1_ms, [&]() { EXPECT_TRUE(deploy_b()); });
  // ToR 0 misses the commit fan-out; then every replica dies before any
  // retransmit, freezing the fabric mixed: ToRs 1-3 on epoch 1, ToR 0
  // staged-but-uncommitted.
  net->sim().schedule_at(1_ms + 30_us,
                         [&]() { ctl->southbound().set_node_loss(0, 1.0); });
  net->sim().schedule_at(1_ms + 60_us, [&]() {
    q->kill_replica(0);
    q->kill_replica(1);
    q->kill_replica(2);
  });
  net->sim().schedule_at(1_ms + 100_us,
                         [&]() { ctl->southbound().set_node_loss(0, 0.0); });
  // Replica 0 comes back alone: it elects forever (no majority exists).
  net->sim().schedule_at(1500_us, [&]() { q->revive_replica(0); });
  net->sim().run_until(2500_us);
  EXPECT_FALSE(q->has_leader());
  EXPECT_GE(q->elections(), 1);
  EXPECT_EQ(ctl->node_committed_epoch(0), 0u);
  EXPECT_TRUE(net->epoch_mixed());

  // Craft the restarting replica's log to explicitly claim the commit
  // decision — the exact bait a term-unaware restart would take.
  q->force_log(0, {{1, 1, ControllerQuorum::RecKind::Prepare},
                   {1, 1, ControllerQuorum::RecKind::Commit}});
  ctl->restart();
  EXPECT_FALSE(ctl->crashed());
  EXPECT_EQ(ctl->resyncs(), 1);
  EXPECT_EQ(ctl->committed_epoch(), 1u);  // recomputed from ToR reports
  // The regression: no send_commit went out — ToR 0 is still mixed.
  EXPECT_EQ(ctl->node_committed_epoch(0), 0u);
  EXPECT_TRUE(net->epoch_mixed());

  // Once a real majority elects a leader, its takeover owns the resync and
  // completes the majority-logged epoch on the straggler.
  q->revive_replica(1);
  q->revive_replica(2);
  q->kill_replica(0);  // force the winner to be a different replica
  net->sim().run_until(4_ms);
  EXPECT_TRUE(q->has_leader());
  EXPECT_GE(q->failovers(), 1);
  EXPECT_GE(ctl->resyncs(), 2);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  EXPECT_EQ(ctl->node_committed_epoch(0), 1u);
  EXPECT_FALSE(net->epoch_mixed());
}

// Staleness probes route to the control plane: with no elected leader (and
// the engine restarted, so this isn't the crashed-controller suppression),
// the watchdog suppresses and re-schedules them instead of burning probes.
// The fixture never starts the network, so no resync beacon runs and every
// node goes stale once 3 x resync_interval (300 us) has passed.
TEST_F(QuorumTest, WatchdogSuppressesProbesWhileNoLeader) {
  make(3);
  ASSERT_EQ(net->config().resync_interval, 100_us);
  ASSERT_FALSE(net->started());
  services::SyncWatchdog wd(*net);
  wd.set_controller(ctl.get());
  wd.start();
  net->sim().schedule_at(10_us, [&]() {
    q->kill_replica(0);
    q->kill_replica(1);  // replica 2 alone: elections can never converge
  });
  net->sim().schedule_at(20_us, [&]() { ctl->restart(); });
  net->sim().run_until(1_ms);
  EXPECT_FALSE(ctl->crashed());
  EXPECT_FALSE(q->has_leader());
  EXPECT_GT(net->sim()
                .metrics()
                .counter("watchdog.probes_suppressed_no_leader")
                .value(),
            0);
  EXPECT_EQ(wd.probes_ok(), 0);
  EXPECT_EQ(wd.probes_lost(), 0);
  wd.stop();
}

// A corrupted follower log (the log_divergence fault) self-heals on the
// next full-log sync from the leader.
TEST_F(QuorumTest, DivergedFollowerLogRepairsOnNextSync) {
  make(3);
  net->sim().schedule_at(1_ms, [&]() { EXPECT_TRUE(deploy_b()); });
  net->sim().run_until(1500_us);
  EXPECT_EQ(q->log(1), q->log(0));
  q->diverge_log(1);
  EXPECT_NE(q->log(1), q->log(0));
  net->sim().run_until(2_ms);  // a heartbeat sync passes
  EXPECT_GE(q->log_repairs(), 1);
  EXPECT_EQ(q->log(1), q->log(0));
}

// Regression for a chaos-fuzzer find: a replica with a silently corrupted
// log tail must not win an election and propagate the corruption into the
// cluster's committed prefix. The checksum scrub truncates the flagged
// record before the replica stands, so the up-to-dateness gate routes
// leadership to a clean copy and every live replica keeps the committed
// records intact.
TEST_F(QuorumTest, CorruptedReplicaCannotPropagateIntoCommittedPrefix) {
  make(3);
  net->sim().schedule_at(1_ms, [&]() { EXPECT_TRUE(deploy_b()); });
  net->sim().run_until(1500_us);
  const auto committed = q->log(0);  // fully replicated by now
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(q->log(1), committed);
  EXPECT_EQ(q->log(2), committed);

  // Kill the leader, then corrupt replica 1's tail once the dead leader's
  // in-flight syncs have drained (they would repair it), so the election
  // runs while the corruption is live.
  const int victim = q->kill_leader();
  EXPECT_EQ(victim, 0);
  net->sim().schedule_at(1550_us, [&]() { q->diverge_log(1); });
  net->sim().run_until(3_ms);  // election + heartbeat resync settle

  EXPECT_GE(q->log_scrubs(), 1);
  const int leader = q->acting();
  EXPECT_NE(leader, victim);
  // Every live replica's committed prefix still matches the original.
  for (int r = 1; r <= 2; ++r) {
    const auto& log = q->log(r);
    const auto upto = std::min(q->commit_index(r),
                               static_cast<std::int64_t>(committed.size()) - 1);
    ASSERT_GE(static_cast<std::int64_t>(log.size()), upto + 1);
    for (std::int64_t i = 0; i <= upto; ++i) {
      EXPECT_EQ(log[static_cast<std::size_t>(i)],
                committed[static_cast<std::size_t>(i)])
          << "replica " << r << " lost committed record " << i;
    }
  }
}

// One full leader-kill chaos scenario — deploys racing a scripted
// leader_kill, replica_partition, and log_divergence plan — must replay
// byte-identically from the same seed.
struct ScenarioOutcome {
  bool d1 = false, d2 = false, d3 = false;
  std::uint64_t committed = 0;
  std::uint64_t term = 0;
  std::int64_t commits = 0, aborts = 0, rollbacks = 0, elections = 0,
               failovers = 0, repairs = 0, cut = 0, stale = 0, rep_sent = 0,
               rep_lost = 0, log_len = 0;
  bool operator==(const ScenarioOutcome&) const = default;
};

ScenarioOutcome run_leader_kill_scenario() {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.seed = 11;
  Network net(cfg, schedule_a(), optics::ocs_emulated());
  Controller ctl(net);
  SouthboundConfig sb;
  sb.latency = SimTime::micros(10);
  ctl.southbound().configure(sb);
  for (int r = 0; r < 3; ++r) ctl.southbound().set_replica_loss(r, 0.05);
  QuorumConfig qc;
  qc.replicas = 3;
  qc.election_timeout = SimTime::micros(200);
  qc.heartbeat = SimTime::micros(50);
  ControllerQuorum q(net, ctl, qc);
  q.start();

  services::FaultPlan plan(net, 7, &ctl);
  plan.load_json(R"({"events": [
    {"kind": "log_divergence", "at_us": 1200, "replica": 1},
    {"kind": "leader_kill", "at_us": 1500, "duration_us": 800},
    {"kind": "replica_partition", "at_us": 1600, "replica": 2,
     "duration_us": 500}
  ]})");
  plan.arm();

  ScenarioOutcome o;
  auto deploy = [&](bool* flag) {
    *flag = ctl.deploy_update(schedule_b(), {}, LookupMode::PerHop,
                              MultipathMode::None, 1, 1, SimTime::zero());
  };
  net.sim().schedule_at(SimTime::millis(1), [&]() { deploy(&o.d1); });
  net.sim().schedule_at(SimTime::millis(2), [&]() { deploy(&o.d2); });
  net.sim().schedule_at(SimTime::millis(3), [&]() { deploy(&o.d3); });
  net.sim().run_until(SimTime::millis(6));

  o.committed = ctl.committed_epoch();
  o.term = q.term();
  o.commits = ctl.txn_commits();
  o.aborts = ctl.txn_aborts();
  o.rollbacks = ctl.txn_rollbacks();
  o.elections = q.elections();
  o.failovers = q.failovers();
  o.repairs = q.log_repairs();
  o.cut = q.msgs_cut();
  o.stale = ctl.stale_term_rejections();
  o.rep_sent = ctl.southbound().replica_msgs_sent();
  o.rep_lost = ctl.southbound().replica_msgs_lost();
  o.log_len = q.log_length();
  return o;
}

TEST(QuorumReplay, LeaderKillScenarioIsDeterministic) {
  const ScenarioOutcome a = run_leader_kill_scenario();
  const ScenarioOutcome b = run_leader_kill_scenario();
  EXPECT_TRUE(a == b);
  // Sanity: the scenario actually exercised the machinery.
  EXPECT_TRUE(a.d1);
  EXPECT_GE(a.failovers, 1);
  EXPECT_GE(a.repairs, 1);
  EXPECT_GE(a.committed, 1u);
}

// The quorum fault builders mirror the JSON kinds.
TEST_F(QuorumTest, FaultPlanBuildersDriveQuorum) {
  make(3);
  services::FaultPlan plan(*net, 3, ctl.get());
  plan.kill_leader(SimTime::millis(1), SimTime::micros(700))
      .partition_replica(SimTime::micros(1100), 2, SimTime::micros(300))
      .diverge_log(SimTime::micros(500), 1);
  plan.arm();
  net->sim().run_until(SimTime::millis(4));
  EXPECT_TRUE(q->has_leader());
  EXPECT_GE(q->failovers(), 1);
  EXPECT_FALSE(q->replica_dead(0));  // revived after duration
  EXPECT_FALSE(q->replica_partitioned(2));
  EXPECT_GE(q->term(), 2u);
}

}  // namespace
}  // namespace oo::core
