// End-to-end behaviours of the backend system (§5): calendar-queue
// scheduling against the rotor fabric, TA flow-table mode, infra services
// (congestion responses, push-back, offloading, flow pausing).
#include "core/network.h"

#include <gtest/gtest.h>

#include "core/controller.h"
#include "routing/to_routing.h"
#include "routing/ta_routing.h"
#include "topo/round_robin.h"

namespace oo::core {
namespace {

using namespace oo::literals;

std::unique_ptr<Network> make_rotor_net(NetworkConfig cfg, int tors,
                                        int uplinks, SimTime slice) {
  cfg.num_tors = tors;
  cfg.calendar_mode = true;
  optics::Schedule sched(tors, uplinks, topo::round_robin_period(tors), slice);
  for (const auto& c : topo::round_robin_1d(tors, uplinks)) {
    sched.add_circuit(c);
  }
  auto net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  return net;
}

Packet data_packet(HostId dst, std::int64_t bytes, FlowId flow = 7) {
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow;
  p.dst_host = dst;
  p.size_bytes = bytes;
  p.payload = bytes - 64;
  return p;
}

TEST(Network, DirectCircuitDelivery) {
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();

  int got = 0;
  net->host(1).bind_flow(7, [&](Packet&&) { ++got; });
  net->sim().schedule_at(10_us, [&]() {
    net->host(0).send(data_packet(1, 1500));
  });
  net->sim().run_until(2_ms);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net->totals().fabric_drops, 0);
}

TEST(Network, PacketWaitsForItsSlice) {
  // With direct routing, a packet to a peer whose circuit is in a later
  // slice must be held in the calendar queue until that slice.
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 8, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();

  // Find a destination whose direct slice from ToR 0 is slice >= 3.
  const auto& sched = net->schedule();
  NodeId far_dst = kInvalidNode;
  SliceId dst_slice = 0;
  for (NodeId d = 1; d < 8; ++d) {
    const auto hop = sched.next_direct(0, d, 0);
    ASSERT_TRUE(hop.has_value());
    if (hop->slice >= 3) {
      far_dst = d;
      dst_slice = hop->slice;
      break;
    }
  }
  ASSERT_NE(far_dst, kInvalidNode);

  SimTime arrival;
  net->host(far_dst).bind_flow(7, [&](Packet&&) {
    arrival = net->sim().now();
  });
  net->sim().schedule_at(5_us, [&]() {
    net->host(0).send(data_packet(far_dst, 1500));
  });
  net->sim().run_until(2_ms);
  // Arrival must be inside (or just after) the direct slice, not before it.
  EXPECT_GE(arrival, sched.slice_start(dst_slice));
}

TEST(Network, VlbTwoHopDelivery) {
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 8, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::vlb(net->schedule()),
                                 LookupMode::PerHop,
                                 MultipathMode::PerPacket));
  net->start();

  int got = 0;
  int max_hops = 0;
  net->host(5).bind_flow(7, [&](Packet&& p) {
    ++got;
    max_hops = std::max(max_hops, p.hops);
  });
  for (int i = 0; i < 20; ++i) {
    net->sim().schedule_at(SimTime::micros(5 + i * 40), [&net]() {
      auto p = data_packet(5, 1500);
      net->host(0).send(std::move(p));
    });
  }
  net->sim().run_until(5_ms);
  EXPECT_EQ(got, 20);
  EXPECT_LE(max_hops, 2);  // VLB is at most two fabric hops
  EXPECT_GE(max_hops, 1);
}

TEST(Network, TaFlowTableMode) {
  // Static topology instance: wildcard entries, FIFO drain, no slicing.
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = false;
  optics::Schedule sched(4, 2, 1, SimTime::seconds(3600));
  sched.add_circuit({0, 0, 1, 0, kAnySlice});
  sched.add_circuit({1, 1, 2, 0, kAnySlice});
  sched.add_circuit({2, 1, 3, 0, kAnySlice});
  Network net(cfg, sched, optics::ocs_mems());
  Controller ctl(net);
  ASSERT_TRUE(ctl.deploy_routing(routing::ecmp(sched), LookupMode::PerHop,
                                 MultipathMode::PerFlow));
  net.start();

  int got = 0;
  int hops = 0;
  net.host(3).bind_flow(7, [&](Packet&& p) {
    ++got;
    hops = p.hops;
  });
  net.sim().schedule_at(1_us, [&]() {
    net.host(0).send(data_packet(3, 1500));
  });
  net.sim().run_until(1_ms);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(hops, 3);  // 0->1->2->3 across the chain
}

TEST(Network, ElectricalPath) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = false;
  cfg.electrical_bw = 100e9;
  optics::Schedule sched(4, 1, 1, SimTime::seconds(3600));
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);
  ASSERT_TRUE(ctl.deploy_routing(routing::electrical_default(4),
                                 LookupMode::PerHop, MultipathMode::None));
  net.start();
  int got = 0;
  net.host(2).bind_flow(7, [&](Packet&&) { ++got; });
  net.sim().schedule_at(1_us, [&]() {
    net.host(0).send(data_packet(2, 1500));
  });
  net.sim().run_until(1_ms);
  EXPECT_EQ(got, 1);
}

TEST(Network, NoRouteDropCounted) {
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  net->start();  // no routing deployed
  net->sim().schedule_at(1_us, [&]() {
    net->host(0).send(data_packet(2, 1500));
  });
  net->sim().run_until(1_ms);
  EXPECT_EQ(net->totals().no_route_drops, 1);
  EXPECT_EQ(net->totals().delivered, 0);
}

TEST(Network, CongestionDropWhenQueueOverCommitted) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Drop;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  // Offer far more than one slice can carry toward one destination:
  // admissible bytes per 100 us slice at 100 Gbps ~ 1.2 MB.
  net->sim().schedule_at(1_us, [&]() {
    for (int i = 0; i < 400; ++i) {
      net->host(0).send(data_packet(1, 9000));
    }
  });
  net->sim().run_until(3_ms);
  EXPECT_GT(net->tor(0).drops_congestion(), 0);
  // Network::totals() and the registry's per-ToR cell count the same drops,
  // and a routed overload never drops for want of a route.
  const auto t = net->totals();
  EXPECT_EQ(t.congestion_drops, net->tor(0).drops_congestion());
  EXPECT_EQ(t.no_route_drops, 0);
  EXPECT_EQ(net->sim().metrics().counter_value(
                "tor.drops", {{"class", "congestion"}, {"node", "0"}}),
            net->tor(0).drops_congestion());
}

TEST(Network, DeferMovesPacketsToLaterSlices) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Defer;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  // HOHO-style routing provides entries at later arrival slices to defer to.
  ASSERT_TRUE(ctl.deploy_routing(routing::hoho(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  int got = 0;
  net->host(1).bind_flow(7, [&](Packet&&) { ++got; });
  net->sim().schedule_at(1_us, [&]() {
    for (int i = 0; i < 300; ++i) {
      net->host(0).send(data_packet(1, 9000));
    }
  });
  net->sim().run_until(10_ms);
  EXPECT_GT(net->tor(0).deferrals(), 0);
  EXPECT_GT(got, 200);  // most packets still arrive
}

TEST(Network, TrimMarksPackets) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Trim;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  int trimmed = 0, whole = 0;
  net->host(1).bind_flow(7, [&](Packet&& p) {
    if (p.trimmed) {
      ++trimmed;
    } else {
      ++whole;
    }
  });
  net->sim().schedule_at(1_us, [&]() {
    for (int i = 0; i < 400; ++i) {
      net->host(0).send(data_packet(1, 9000));
    }
  });
  net->sim().run_until(5_ms);
  EXPECT_GT(net->tor(0).trims(), 0);
  EXPECT_GT(trimmed, 0);
  EXPECT_GT(whole, 0);
}

TEST(Network, PushbackPausesSenders) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Drop;
  cfg.pushback = true;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  net->sim().schedule_at(1_us, [&]() {
    for (int i = 0; i < 400; ++i) {
      net->host(0).send(data_packet(1, 9000));
    }
  });
  net->sim().run_until(5_ms);
  EXPECT_GT(net->tor(0).pushbacks_sent(), 0);
}

TEST(Network, OffloadRoundTrip) {
  // A calendar horizon much smaller than the schedule period forces
  // rank-overflow packets onto hosts, which return them in time (§5.2).
  NetworkConfig cfg;
  cfg.offload = true;
  cfg.calendar_queues = 2;  // horizon of 2 slices; period is 7
  auto net = make_rotor_net(cfg, 8, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();

  // Send to every other ToR: most direct slices are beyond the horizon.
  int got = 0;
  for (HostId d = 1; d < 8; ++d) {
    net->host(d).bind_flow(7, [&](Packet&&) { ++got; });
  }
  net->sim().schedule_at(1_us, [&]() {
    for (HostId d = 1; d < 8; ++d) {
      net->host(0).send(data_packet(d, 1500));
    }
  });
  net->sim().run_until(3_ms);
  EXPECT_GT(net->tor(0).offloads(), 0);
  EXPECT_EQ(got, 7);  // all packets still arrive
}

TEST(Network, FlowPausingParksAndDrains) {
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  int got = 0;
  net->host(1).bind_flow(7, [&](Packet&&) { ++got; });
  net->host(0).pause_dst(1);
  net->sim().schedule_at(1_us, [&]() {
    net->host(0).send(data_packet(1, 1500));
  });
  net->sim().run_until(1_ms);
  EXPECT_EQ(got, 0);
  EXPECT_GT(net->host(0).segment_bytes(1), 0);
  net->host(0).resume_dst(1);
  net->sim().run_until(3_ms);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(net->host(0).segment_bytes(1), 0);
}

TEST(Network, SegmentQueueBackpressure) {
  NetworkConfig cfg;
  cfg.host_segment_queue = 4000;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  net->start();
  net->host(0).pause_dst(1);
  bool unblocked = false;
  net->host(0).set_unblock_callback([&](NodeId) { unblocked = true; });
  EXPECT_TRUE(net->host(0).send(data_packet(1, 1500)));
  EXPECT_TRUE(net->host(0).send(data_packet(1, 1500)));
  EXPECT_FALSE(net->host(0).send(data_packet(1, 1500)));  // full: rejected
  EXPECT_TRUE(net->host(0).would_block(1));
  net->host(0).resume_dst(1);
  net->sim().run_until(1_ms);
  EXPECT_TRUE(unblocked);
}

TEST(Network, TrafficCollection) {
  NetworkConfig cfg;
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  net->sim().schedule_at(1_us, [&]() {
    net->host(0).send(data_packet(2, 1500));
    net->host(1).send(data_packet(3, 3000));
  });
  net->sim().run_until(1_ms);
  const auto tm = net->collect_tm();
  EXPECT_EQ(tm[0][2], 1500);
  EXPECT_EQ(tm[1][3], 3000);
  // Counters drained.
  const auto tm2 = net->collect_tm();
  EXPECT_EQ(tm2[0][2], 0);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.seed = seed;
    auto net = make_rotor_net(cfg, 8, 1, 100_us);
    Controller ctl(*net);
    ctl.deploy_routing(routing::vlb(net->schedule()), LookupMode::PerHop,
                       MultipathMode::PerPacket);
    net->start();
    std::vector<SimTime> arrivals;
    net->host(3).bind_flow(7, [&](Packet&&) {
      arrivals.push_back(net->sim().now());
    });
    for (int i = 0; i < 10; ++i) {
      net->sim().schedule_at(SimTime::micros(10 + 30 * i), [&net]() {
        net->host(0).send(data_packet(3, 1500));
      });
    }
    net->sim().run_until(3_ms);
    return arrivals;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // seeds matter (VLB spraying)
}

}  // namespace
}  // namespace oo::core
