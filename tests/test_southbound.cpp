// Transactional southbound control plane: two-phase deploy transactions
// over a lossy modeled channel, epoch fencing, abort/rollback, controller
// crash/restart resync, and the mixed-epoch exposure metric.
#include <gtest/gtest.h>

#include <memory>

#include "core/controller.h"
#include "core/southbound.h"
#include "services/fault_plan.h"
#include "telemetry/flight_recorder.h"

namespace oo::core {
namespace {

using namespace oo::literals;

// Two reconfigure-compatible period-3 matchings over 4 ToRs x 1 uplink.
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

struct SouthboundTest : ::testing::Test {
  SouthboundTest() {
    NetworkConfig cfg;
    cfg.num_tors = 4;
    cfg.calendar_mode = true;
    cfg.seed = 11;
    net = std::make_unique<Network>(cfg, schedule_a(), optics::ocs_emulated());
    ctl = std::make_unique<Controller>(*net);
  }

  void set_latency(SimTime lat) {
    SouthboundConfig sb;
    sb.latency = lat;
    ctl->southbound().configure(sb);
  }

  std::unique_ptr<Network> net;
  std::unique_ptr<Controller> ctl;
};

TEST_F(SouthboundTest, IdealChannelDeliversInline) {
  int delivered = 0;
  EXPECT_TRUE(ctl->southbound().ideal());
  EXPECT_EQ(ctl->southbound().send(0, [&]() { ++delivered; }, "t"), 1);
  EXPECT_EQ(delivered, 1);  // no event loop ran: delivery was synchronous
  EXPECT_EQ(ctl->southbound().msgs_sent(), 1);
  EXPECT_EQ(ctl->southbound().msgs_lost(), 0);
}

TEST_F(SouthboundTest, PerNodeOverridesMakeChannelNonIdeal) {
  ctl->southbound().set_node_loss(0, 1.0);
  EXPECT_FALSE(ctl->southbound().ideal());
  int delivered = 0;
  EXPECT_EQ(ctl->southbound().send(0, [&]() { ++delivered; }, "t"), 0);
  EXPECT_EQ(ctl->southbound().msgs_lost(), 1);
  // Other nodes are unaffected (but now scheduled, since loss is drawn
  // per-send only for the overridden node — node 1 has no override and an
  // ideal base, so it still delivers inline).
  EXPECT_EQ(ctl->southbound().send(1, [&]() { ++delivered; }, "t"), 1);
  EXPECT_EQ(delivered, 1);
  ctl->southbound().set_node_loss(0, 0.0);
  EXPECT_TRUE(ctl->southbound().ideal());
}

TEST_F(SouthboundTest, InlineDeployCommitsEpochSynchronously) {
  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  EXPECT_EQ(ctl->txn_commits(), 1);
  EXPECT_FALSE(ctl->txn_in_flight());
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
  }
  // The swap is a zero-delay event, exactly the legacy semantics.
  net->sim().run();
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 2);
  EXPECT_FALSE(net->epoch_mixed());
  EXPECT_EQ(net->mixed_epoch_slices(), 0);
}

// Satellite: last_error() must describe the *latest* call, not a stale
// failure from an earlier one.
TEST_F(SouthboundTest, LastErrorClearedByEachDeploy) {
  Path bad;
  bad.dst = 3;
  bad.start_slice = 0;
  bad.hops.push_back(PathHop{0, 0, 0});  // slice-0 circuit goes to 1, not 3
  EXPECT_FALSE(ctl->deploy_routing({bad}, LookupMode::PerHop,
                                   MultipathMode::None));
  EXPECT_FALSE(ctl->last_error().empty());

  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
  EXPECT_TRUE(ctl->last_error().empty());
  net->sim().run();  // apply the zero-delay fabric swap to schedule B

  EXPECT_FALSE(ctl->deploy_routing({bad}, LookupMode::PerHop,
                                   MultipathMode::None));
  EXPECT_FALSE(ctl->last_error().empty());
  Path good;
  good.dst = 2;
  good.start_slice = 0;
  good.hops.push_back(PathHop{0, 0, 0});  // schedule B: slice 0 is 0->2
  EXPECT_TRUE(ctl->deploy_routing({good}, LookupMode::PerHop,
                                  MultipathMode::None));
  EXPECT_TRUE(ctl->last_error().empty());
}

// Satellite: deploys_rejected lives in the metrics registry (no const_cast
// mutation from a const path), alongside the transaction counters.
TEST_F(SouthboundTest, RejectionAndTxnCountersAreRegistryCells) {
  ctl->set_deploy_fail(true);
  EXPECT_FALSE(ctl->deploy_topo(circuits_b(), 3));
  EXPECT_NE(ctl->last_error().find("control plane"), std::string::npos);
  ctl->set_deploy_fail(false);
  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));

  auto& m = net->sim().metrics();
  EXPECT_EQ(m.counter("controller.deploys_rejected").value(), 1);
  EXPECT_EQ(m.counter("controller.txn_commits").value(), 1);
  EXPECT_EQ(ctl->deploys_rejected(), 1);
  EXPECT_EQ(ctl->txn_commits(), 1);
  EXPECT_EQ(ctl->txn_aborts(), 0);
  EXPECT_EQ(m.counter("controller.txn_aborts").value(), 0);
  EXPECT_EQ(m.counter("net.mixed_epoch_slices").value(), 0);
}

TEST_F(SouthboundTest, AsyncDeployRunsTwoPhaseCommit) {
  telemetry::FlightRecorder rec(1024);
  net->sim().set_recorder(&rec);
  set_latency(10_us);
  net->sim().schedule_at(1_ms, [&]() {
    EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
    EXPECT_TRUE(ctl->txn_in_flight());  // not yet committed: channel is slow
    EXPECT_EQ(ctl->committed_epoch(), 0u);
  });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  EXPECT_EQ(ctl->txn_commits(), 1);
  EXPECT_EQ(ctl->txn_aborts(), 0);
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 2);

  int prepares = 0, acks = 0, commits = 0;
  rec.for_each([&](const telemetry::TraceEvent& ev) {
    if (ev.kind == telemetry::EventKind::TxnPrepare) ++prepares;
    if (ev.kind == telemetry::EventKind::TxnAck) ++acks;
    if (ev.kind == telemetry::EventKind::TxnCommit) ++commits;
  });
  EXPECT_EQ(prepares, 1);
  EXPECT_EQ(acks, 4);
  EXPECT_EQ(commits, 1);
}

TEST_F(SouthboundTest, LossToOneTorAbortsAndRollsBackEverywhere) {
  set_latency(10_us);
  ctl->southbound().set_node_loss(0, 1.0);
  bool done_called = false, done_committed = true;
  net->sim().schedule_at(1_ms, [&]() {
    optics::Schedule b(4, 1, 3, 100_us);
    for (const auto& c : circuits_b()) b.add_circuit(c);
    EXPECT_TRUE(ctl->deploy_update(b, {}, LookupMode::PerHop,
                                   MultipathMode::None, 1, 1, SimTime::zero(),
                                   [&](bool committed) {
                                     done_called = true;
                                     done_committed = committed;
                                   }));
  });
  net->sim().run_until(3_ms);
  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_committed);
  EXPECT_EQ(ctl->txn_aborts(), 1);
  EXPECT_EQ(ctl->txn_commits(), 0);
  EXPECT_EQ(ctl->txn_rollbacks(), 3);  // ToRs 1..3 staged, then rolled back
  EXPECT_EQ(ctl->committed_epoch(), 0u);
  EXPECT_NE(ctl->last_error().find("prepare timeout"), std::string::npos);
  // The fabric never swapped and no agent runs the aborted epoch.
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 0u);
  }
  EXPECT_FALSE(net->epoch_mixed());
  EXPECT_EQ(net->mixed_epoch_slices(), 0);
}

TEST_F(SouthboundTest, InstallAgentNackAbortsTransaction) {
  set_latency(10_us);
  ctl->set_install_fail(2, true);
  net->sim().schedule_at(1_ms,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->txn_aborts(), 1);
  EXPECT_EQ(ctl->committed_epoch(), 0u);
  EXPECT_NE(ctl->last_error().find("rejected install"), std::string::npos);
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 1);
}

// A delayed install from epoch N arriving after epoch N+1 commits must be
// fenced by the agent's committed-epoch watermark, not applied.
TEST_F(SouthboundTest, StaleInstallFromEarlierEpochFencedAfterLaterCommit) {
  set_latency(10_us);
  // Epoch 1's install to ToR 0 is delayed 290us -> lands at t+300us, long
  // after epoch 1 aborted (prepare timeout 200us) and epoch 2 committed.
  ctl->southbound().set_node_delay(0, 290_us);
  net->sim().schedule_at(1_ms,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  net->sim().schedule_at(1_ms + 250_us, [&]() {
    ctl->southbound().set_node_delay(0, SimTime::zero());
    EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));  // epoch 2
  });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->txn_aborts(), 1);   // epoch 1 timed out
  EXPECT_EQ(ctl->txn_commits(), 1);  // epoch 2 committed everywhere
  EXPECT_EQ(ctl->committed_epoch(), 2u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 2u);
  }
  // The straggling epoch-1 install hit ToR 0 after its watermark moved to 2.
  EXPECT_GE(ctl->fenced_stale_installs(), 1);
  EXPECT_FALSE(net->epoch_mixed());
}

TEST_F(SouthboundTest, DuplicatedMessagesCommitOnceAndFenceTheEcho) {
  set_latency(10_us);
  ctl->southbound().set_node_dup(0, 1.0);  // every ToR-0 message twice
  net->sim().schedule_at(1_ms,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->txn_commits(), 1);
  EXPECT_EQ(ctl->committed_epoch(), 1u);
  EXPECT_GE(ctl->southbound().msgs_duped(), 1);
  // The duplicate install echo arrived after the commit moved the
  // watermark; it fenced instead of re-staging a committed epoch.
  EXPECT_GE(ctl->fenced_stale_installs(), 1);
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 2);
}

// Satellite: a port that dies while installs are in flight must abort the
// transaction at commit time, not swap in a schedule over dark fiber.
TEST_F(SouthboundTest, PortFailureMidDelayAbortsInsteadOfInstalling) {
  ctl->set_deploy_delay(50_us);  // ideal channel, slow controller
  net->sim().schedule_at(1_ms,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  // Port (0,0) carries circuits of the new schedule; it dies mid-delay.
  net->sim().schedule_at(1_ms + 25_us,
                         [&]() { net->optical().set_port_failed(0, 0, true); });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->txn_commits(), 0);
  EXPECT_EQ(ctl->txn_aborts(), 1);
  EXPECT_NE(ctl->last_error().find("failed mid-transaction"),
            std::string::npos);
  EXPECT_EQ(ctl->committed_epoch(), 0u);
  EXPECT_EQ(net->schedule().peer(0, 0, 0)->node, 1);  // old schedule intact
}

TEST_F(SouthboundTest, CrashDropsInflightTxnAndRestartResyncs) {
  set_latency(10_us);
  bool done_called = false, done_committed = true;
  net->sim().schedule_at(1_ms, [&]() {
    optics::Schedule b(4, 1, 3, 100_us);
    for (const auto& c : circuits_b()) b.add_circuit(c);
    EXPECT_TRUE(ctl->deploy_update(b, {}, LookupMode::PerHop,
                                   MultipathMode::None, 1, 1, SimTime::zero(),
                                   [&](bool committed) {
                                     done_called = true;
                                     done_committed = committed;
                                   }));
  });
  // Crash after installs stage (t+10us) but before acks process (t+20us).
  net->sim().schedule_at(1_ms + 15_us, [&]() { ctl->crash(); });
  net->sim().schedule_at(1_ms + 100_us, [&]() {
    EXPECT_TRUE(ctl->crashed());
    EXPECT_FALSE(ctl->deploy_topo(circuits_b(), 3));  // rejected while down
    EXPECT_NE(ctl->last_error().find("crashed"), std::string::npos);
  });
  net->sim().schedule_at(2_ms, [&]() { ctl->restart(); });
  net->sim().run_until(3_ms);
  EXPECT_TRUE(done_called);
  EXPECT_FALSE(done_committed);
  EXPECT_EQ(ctl->resyncs(), 1);
  EXPECT_FALSE(ctl->crashed());
  // Presumed abort: the staged-but-uncommitted epoch rolled back everywhere.
  EXPECT_EQ(ctl->committed_epoch(), 0u);
  EXPECT_GE(ctl->txn_rollbacks(), 1);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 0u);
  }
  // And the controller works again: a fresh deploy commits at a new epoch
  // (channel is still 10us-slow, so drive the transaction to completion).
  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
  net->sim().run_until(4_ms);
  EXPECT_GE(ctl->committed_epoch(), 1u);
}

// A commit lost to one ToR, then a controller crash: restart must detect
// the partially committed epoch from per-ToR reports and complete it on
// the straggler rather than leaving the fabric mixed.
TEST_F(SouthboundTest, RestartCompletesPartiallyCommittedEpoch) {
  set_latency(10_us);
  net->sim().schedule_at(1_ms,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  // After ToR 0's install+ack are in flight but before the commit is sent
  // (acks land at t+20us), its channel turns lossy: the commit (and every
  // retransmission) to ToR 0 dies.
  net->sim().schedule_at(1_ms + 15_us,
                         [&]() { ctl->southbound().set_node_loss(0, 1.0); });
  net->sim().schedule_at(1_ms + 50_us, [&]() {
    EXPECT_EQ(ctl->committed_epoch(), 1u);     // fabric-wide decision made
    EXPECT_EQ(ctl->node_committed_epoch(0), 0u);  // ...but ToR 0 missed it
    EXPECT_TRUE(net->epoch_mixed());
    ctl->crash();
  });
  net->sim().schedule_at(1_ms + 60_us,
                         [&]() { ctl->southbound().set_node_loss(0, 0.0); });
  net->sim().schedule_at(1_ms + 100_us, [&]() { ctl->restart(); });
  net->sim().run_until(2_ms);
  EXPECT_EQ(ctl->resyncs(), 1);
  EXPECT_EQ(ctl->committed_epoch(), 1u);  // reconstructed from ToR reports
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(ctl->node_committed_epoch(n), 1u);
  }
  EXPECT_FALSE(net->epoch_mixed());  // straggler completed, fabric uniform
}

// The headline robustness claim, both directions on the same seed: with
// fencing on, southbound loss to one ToR costs an aborted transaction but
// ZERO mixed-epoch slices; with fencing off (legacy scatter), the same loss
// leaves the fabric forwarding on two epochs for real slices.
struct MixedEpochOutcome {
  std::int64_t mixed_slices;
  int aborts, commits;
  bool mixed_at_end;
};

MixedEpochOutcome run_mixed_epoch_scenario(bool fencing) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.seed = 11;
  auto net =
      std::make_unique<Network>(cfg, schedule_a(), optics::ocs_emulated());
  auto ctl = std::make_unique<Controller>(*net);
  ctl->set_fencing(fencing);
  SouthboundConfig sb;
  sb.latency = 10_us;
  ctl->southbound().configure(sb);
  ctl->southbound().set_node_loss(0, 1.0);
  net->start();
  net->sim().schedule_at(1_ms, [&]() { ctl->deploy_topo(circuits_b(), 3); });
  net->sim().run_until(5_ms);
  return {net->mixed_epoch_slices(), static_cast<int>(ctl->txn_aborts()),
          static_cast<int>(ctl->txn_commits()), net->epoch_mixed()};
}

TEST(SouthboundMixedEpoch, FencingPreventsMixedEpochForwarding) {
  const auto fenced = run_mixed_epoch_scenario(/*fencing=*/true);
  EXPECT_EQ(fenced.mixed_slices, 0);
  EXPECT_FALSE(fenced.mixed_at_end);
  EXPECT_EQ(fenced.commits, 0);
  EXPECT_GE(fenced.aborts, 1);
}

TEST(SouthboundMixedEpoch, ScatterModeExposesMixedEpochForwarding) {
  const auto scatter = run_mixed_epoch_scenario(/*fencing=*/false);
  EXPECT_GT(scatter.mixed_slices, 0);
  EXPECT_TRUE(scatter.mixed_at_end);  // ToR 0 never learned the new epoch
}

TEST(SouthboundMixedEpoch, ScenarioReplaysDeterministically) {
  const auto a = run_mixed_epoch_scenario(false);
  const auto b = run_mixed_epoch_scenario(false);
  EXPECT_EQ(a.mixed_slices, b.mixed_slices);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.commits, b.commits);
}

// The new FaultPlan kinds drive the same machinery through JSON, "prob"
// alias included.
TEST_F(SouthboundTest, FaultPlanJsonDrivesSouthboundChaos) {
  set_latency(10_us);
  services::FaultPlan plan(*net, /*seed=*/5, ctl.get());
  plan.load_json(R"({"events":[
    {"kind":"sb_msg_loss","at_us":1000,"node":0,"prob":1.0,
     "duration_us":500},
    {"kind":"controller_crash","at_us":2000,"duration_us":300},
    {"kind":"tor_install_fail","at_us":4000,"node":2,"duration_us":500}
  ]})");
  EXPECT_EQ(plan.size(), 3u);
  plan.arm();

  // During the loss window a deploy aborts on prepare timeout.
  net->sim().schedule_at(1_ms + 100_us,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  net->sim().schedule_at(2_ms + 100_us, [&]() {
    EXPECT_TRUE(ctl->crashed());
    EXPECT_FALSE(ctl->deploy_topo(circuits_b(), 3));
  });
  net->sim().schedule_at(2_ms + 500_us,
                         [&]() { EXPECT_FALSE(ctl->crashed()); });
  // During the install-fail window ToR 2 NACKs and the txn aborts.
  net->sim().schedule_at(4_ms + 100_us,
                         [&]() { EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3)); });
  net->sim().run_until(6_ms);

  // Loss-window prepare timeout + install NACK. (The crash rejects the
  // deploy upfront — no transaction ever starts, so nothing to abort.)
  EXPECT_GE(ctl->txn_aborts(), 2);
  EXPECT_EQ(ctl->resyncs(), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::SbMsgLoss), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::ControllerCrash), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::TorInstallFail), 1);
  // After every window closes, the control plane is healthy again.
  EXPECT_TRUE(ctl->deploy_topo(circuits_b(), 3));
  net->sim().run_until(7_ms);
  EXPECT_GE(ctl->committed_epoch(), 1u);
}

}  // namespace
}  // namespace oo::core
