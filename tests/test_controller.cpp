#include "core/controller.h"

#include <gtest/gtest.h>

#include "topo/round_robin.h"

namespace oo::core {
namespace {

using namespace oo::literals;

struct ControllerTest : ::testing::Test {
  ControllerTest() {
    NetworkConfig cfg;
    cfg.num_tors = 4;
    cfg.calendar_mode = true;
    optics::Schedule sched(4, 1, 3, 100_us);
    sched.add_circuit({0, 0, 1, 0, 0});
    sched.add_circuit({2, 0, 3, 0, 0});
    sched.add_circuit({0, 0, 2, 0, 1});
    sched.add_circuit({1, 0, 3, 0, 1});
    sched.add_circuit({0, 0, 3, 0, 2});
    sched.add_circuit({1, 0, 2, 0, 2});
    net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
    ctl = std::make_unique<Controller>(*net);
  }
  std::unique_ptr<Network> net;
  std::unique_ptr<Controller> ctl;
};

TEST_F(ControllerTest, CompileScheduleRejectsConflicts) {
  optics::Schedule out;
  EXPECT_TRUE(ctl->compile_schedule({{0, 0, 1, 0, 0}, {2, 0, 3, 0, 0}}, 3,
                                    out));
  EXPECT_EQ(out.circuits().size(), 2u);
  EXPECT_FALSE(ctl->compile_schedule({{0, 0, 1, 0, 0}, {0, 0, 2, 0, 0}}, 3,
                                     out));
  EXPECT_NE(ctl->last_error().find("infeasible"), std::string::npos);
}

TEST_F(ControllerTest, RejectsPathWhoseCircuitLeadsElsewhere) {
  Path p;
  p.dst = 3;
  p.start_slice = 0;
  p.hops.push_back(PathHop{0, 0, 1});  // slice 1: 0's circuit goes to 2
  EXPECT_FALSE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
}

TEST_F(ControllerTest, PathPeerMismatchRejected) {
  Path p;
  p.dst = 3;
  p.start_slice = 0;
  p.hops.push_back(PathHop{0, 0, 0});  // slice 0 circuit 0->1, but dst is 3
  EXPECT_FALSE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
  EXPECT_NE(ctl->last_error().find("leads to"), std::string::npos);
}

TEST_F(ControllerTest, NoCircuitRejected) {
  Path p;
  p.dst = 1;
  p.start_slice = 0;
  p.hops.push_back(PathHop{3, 0, 1});  // node 3 port 0 at slice 1 -> node 1 ok
  EXPECT_TRUE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
  Path q;
  q.dst = 1;
  q.start_slice = 0;
  q.hops.push_back(PathHop{3, 0, 7});  // bad slice
  EXPECT_FALSE(
      ctl->deploy_routing({q}, LookupMode::PerHop, MultipathMode::None));
}

TEST_F(ControllerTest, PerHopCompilesEveryHop) {
  // 0 -> 1 (slice 0) then 1 -> 3 (slice 1).
  Path p;
  p.src = 0;
  p.dst = 3;
  p.start_slice = 0;
  p.hops.push_back(PathHop{0, 0, 0});
  p.hops.push_back(PathHop{1, 0, 1});
  ASSERT_TRUE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
  // Entry at node 0: (arr=0, src=0, dst=3).
  const TftEntry* e0 = net->tor(0).tft().lookup(0, 0, 3);
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->actions[0].hops.size(), 1u);
  EXPECT_EQ(e0->actions[0].hops[0].dep_slice, 0);
  // Entry at node 1: wildcard src, arr = previous dep (0).
  const TftEntry* e1 = net->tor(1).tft().lookup(0, 99, 3);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->actions[0].hops[0].dep_slice, 1);
}

TEST_F(ControllerTest, SourceRoutingCompilesOnlyAtSource) {
  Path p;
  p.src = 0;
  p.dst = 3;
  p.start_slice = 0;
  p.hops.push_back(PathHop{0, 0, 0});
  p.hops.push_back(PathHop{1, 0, 1});
  ASSERT_TRUE(ctl->deploy_routing({p}, LookupMode::SourceRouting,
                                  MultipathMode::None));
  const TftEntry* e0 = net->tor(0).tft().lookup(0, 0, 3);
  ASSERT_NE(e0, nullptr);
  EXPECT_EQ(e0->actions[0].hops.size(), 2u);  // whole path in the action
  EXPECT_EQ(net->tor(1).tft().lookup(0, 0, 3), nullptr);  // nothing at hop 2
}

TEST_F(ControllerTest, MultipathMergesAndDedupes) {
  // Two distinct paths + one duplicate: entry gets 2 actions, the duplicate
  // doubles its weight.
  Path a;
  a.dst = 3;
  a.start_slice = 0;
  a.hops.push_back(PathHop{0, 0, 2});  // direct 0->3 at slice 2
  Path b = a;                          // duplicate of a
  Path c;
  c.dst = 3;
  c.start_slice = 0;
  c.hops.push_back(PathHop{0, 0, 0});  // via node 1
  c.hops.push_back(PathHop{1, 0, 1});
  ASSERT_TRUE(ctl->deploy_routing({a, b, c}, LookupMode::PerHop,
                                  MultipathMode::PerPacket));
  const TftEntry* e = net->tor(0).tft().lookup(0, 5, 3);
  ASSERT_NE(e, nullptr);
  ASSERT_EQ(e->actions.size(), 2u);
  double wa = 0, wc = 0;
  for (const auto& act : e->actions) {
    if (act.hops[0].dep_slice == 2) wa = act.weight;
    if (act.hops[0].dep_slice == 0) wc = act.weight;
  }
  EXPECT_DOUBLE_EQ(wa, 2.0);
  EXPECT_DOUBLE_EQ(wc, 1.0);
}

TEST_F(ControllerTest, ValidateAgainstUpcomingSchedule) {
  // Path valid only on a NEW schedule; make-before-break deployment.
  optics::Schedule next;
  ASSERT_TRUE(ctl->compile_schedule({{0, 0, 3, 0, 0}}, 3, next));
  Path p;
  p.dst = 3;
  p.start_slice = 0;
  p.hops.push_back(PathHop{0, 0, 0});
  EXPECT_FALSE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
  EXPECT_TRUE(ctl->deploy_routing({p}, LookupMode::PerHop,
                                  MultipathMode::None, 1, &next));
}

TEST_F(ControllerTest, AddAndClear) {
  TftEntry e;
  e.match = TftMatch{kAnySlice, kInvalidNode, 2};
  e.actions.push_back(TftAction{{net::SourceHop{0, 0}}, 1.0});
  EXPECT_TRUE(ctl->add(e, 1));
  EXPECT_FALSE(ctl->add(e, 99));
  EXPECT_NE(net->tor(1).tft().lookup(0, 0, 2), nullptr);
  ctl->clear_routing();
  EXPECT_EQ(net->tor(1).tft().lookup(0, 0, 2), nullptr);
}

TEST_F(ControllerTest, ElectricalHopNeedsFabric) {
  Path p;
  p.dst = 1;
  p.start_slice = kAnySlice;
  p.hops.push_back(PathHop{0, kElectricalEgress, kAnySlice});
  // This network has no electrical fabric.
  EXPECT_FALSE(
      ctl->deploy_routing({p}, LookupMode::PerHop, MultipathMode::None));
  EXPECT_NE(ctl->last_error().find("electrical"), std::string::npos);
}

TEST(ControllerElectrical, HopOutsideTheNetworkRejected) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.electrical_bw = 10e9;
  optics::Schedule sched(4, 1, 3, 100_us);
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);
  // From node 9, to node 7 and to node -5: none of them is one of the 4
  // ToRs, and the compile would index a table that does not exist.
  for (const auto& [node, dst] :
       {std::pair{9, 1}, std::pair{0, 7}, std::pair{0, -5}}) {
    Path p;
    p.dst = dst;
    p.hops.push_back(PathHop{node, kElectricalEgress, kAnySlice});
    EXPECT_FALSE(
        ctl.deploy_routing({p}, LookupMode::PerHop, MultipathMode::None))
        << node << " -> " << dst;
    EXPECT_NE(ctl.last_error().find("leaves the network"), std::string::npos)
        << ctl.last_error();
  }
  Path ok;
  ok.dst = 3;
  ok.hops.push_back(PathHop{0, kElectricalEgress, kAnySlice});
  EXPECT_TRUE(
      ctl.deploy_routing({ok}, LookupMode::PerHop, MultipathMode::None));
}

}  // namespace
}  // namespace oo::core
