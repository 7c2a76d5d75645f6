// End-to-end behaviours of the backend system (§5): calendar-queue
// scheduling against the rotor fabric, TA flow-table mode, infra services
// (congestion responses, push-back, offloading, flow pausing).
#include "core/network.h"

#include <gtest/gtest.h>

#include <stdexcept>

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

// A source-routed packet whose intended queue is congested, and whose
// deferral target has room by the estimator but not by bytes, is parked in
// its intended queue with its own remaining hops, not the rejected
// alternative's, and reaches its destination.
TEST(Network, RejectedDeferralKeepsThePacketsOwnRoute) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Defer;
  cfg.optical_bw = 1e9;       // a slice window carries 12,475 B
  cfg.queue_capacity = 8000;  // below a window: bytes reject first
  cfg.sync_error = SimTime::zero();
  auto net = make_rotor_net(cfg, 4, 1, 100_us);
  const auto& sched = net->schedule();
  auto peer = [&](NodeId n, SliceId s) { return sched.peer(n, 0, s)->node; };
  // ToR 0 reaches n1 in slice 0. From n1, slice 1 leads to `dst` (the
  // packet's own second hop) and slice 2 to `other` (the alternative's).
  const NodeId n1 = peer(0, 0);
  const NodeId dst = peer(n1, 1);
  const NodeId other = peer(n1, 2);
  ASSERT_EQ(other, peer(0, 1));
  auto route = [&](SliceId arr, NodeId to,
                   std::vector<net::SourceHop> hops) {
    TftEntry e;
    e.match = {arr, kInvalidNode, to};
    e.actions.push_back(TftAction{std::move(hops), 1.0});
    net->tor(0).tft().add(std::move(e));
  };
  route(0, dst, {{0, 0}, {0, 1}});  // own route: out now, then to dst
  route(1, dst, {{0, 1}, {0, 2}});  // alternative: later, then to other
  route(0, other, {{0, 1}});        // fills the alternative's queue
  route(0, n1, {{0, 0}});           // fills the intended queue
  net->start();
  int own = 0;
  net->host(dst).bind_flow(3, [&](Packet&&) { ++own; });
  auto inject = [&](NodeId to, std::int64_t bytes, FlowId flow) {
    Packet p = data_packet(to, bytes, flow);
    p.id = flow;
    p.src_node = 0;
    p.dst_node = to;
    net->tor(0).from_host(std::move(p));
  };
  // 1 us before slice 0 ends, the active queue admits 125 B.
  net->sim().schedule_at(99_us, [&]() {
    inject(other, 4000, 1);  // alternative queue: 4,000 of 8,000 B
    inject(n1, 1000, 2);     // intended queue: now over its 125 B
    inject(dst, 5000, 3);    // congested; the alternative lacks bytes
  });
  net->sim().run_until(1_ms);
  EXPECT_EQ(net->sim().metrics().counter_value("calendar.full_rejects"), 1);
  EXPECT_EQ(net->tor(0).deferrals(), 0);
  EXPECT_EQ(own, 1);
  EXPECT_EQ(net->totals().no_route_drops, 0);
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

// "calendar.rank_overflows" counts every packet whose departure is past
// the calendar horizon, whether it is offloaded or handed to the
// congestion response. Host 0 sends one packet to every other ToR of an
// 8-ToR rotor (period 7) with direct routing.
std::int64_t rank_overflows(NetworkConfig cfg, std::int64_t* offloads,
                            std::int64_t* drops) {
  auto net = make_rotor_net(cfg, 8, 1, 100_us);
  Controller ctl(*net);
  EXPECT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                 LookupMode::PerHop, MultipathMode::None));
  net->start();
  net->sim().schedule_at(1_us, [&]() {
    for (HostId d = 1; d < 8; ++d) {
      net->host(0).send(data_packet(d, 1500));
    }
  });
  net->sim().run_until(3_ms);
  *offloads = net->tor(0).offloads();
  *drops = net->tor(0).drops_congestion();
  return net->sim().metrics().counter_value("calendar.rank_overflows");
}

TEST(Network, RankOverflowsCountPacketsPastTheHorizon) {
  std::int64_t offloads = 0, drops = 0;
  NetworkConfig cfg;
  cfg.offload = true;
  cfg.calendar_queues = 4;
  const std::int64_t offloaded = rank_overflows(cfg, &offloads, &drops);
  EXPECT_GT(offloads, 0);
  EXPECT_EQ(offloaded, offloads);
  EXPECT_EQ(drops, 0);

  cfg.offload = false;
  const std::int64_t dropped = rank_overflows(cfg, &offloads, &drops);
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(dropped, drops);  // the Drop response takes each one

  cfg.calendar_queues = 7;  // the whole period
  EXPECT_EQ(rank_overflows(cfg, &offloads, &drops), 0);
  EXPECT_EQ(drops, 0);
}

// A queued packet stamps its slice and uplink in 16 bits, so a network
// whose schedule would not fit is rejected when it is built.
TEST(Network, RejectsAPeriodPastThePacketsSliceStamp) {
  NetworkConfig cfg;
  cfg.num_tors = 2;
  EXPECT_THROW(Network(cfg, optics::Schedule(2, 1, 32768, 1_us),
                       optics::ocs_emulated()),
               std::invalid_argument);
  EXPECT_NO_THROW(Network(cfg, optics::Schedule(2, 1, 32767, 1_us),
                          optics::ocs_emulated()));
}

// A source route longer than a 16-bit cursor could index is carried hop
// by hop: ToR a's packet for b bounces between a and c, then takes c's
// circuit to b.
TEST(Network, LongSourceRouteIsCarriedWhole) {
  NetworkConfig cfg;
  cfg.congestion_detection = false;  // a late packet waits for its slice
  auto net = make_rotor_net(cfg, 8, 1, 100_us);
  const auto& sched = net->schedule();
  const NodeId a = 0;
  const NodeId c = sched.peer(a, 0, 0)->node;
  ASSERT_EQ(sched.peer(c, 0, 0)->node, a);
  const SliceId to_b = 1;
  const NodeId b = sched.peer(c, 0, to_b)->node;
  ASSERT_NE(b, a);
  constexpr int kBounces = 65536;  // a->c and c->a, then c->b
  Path path;
  path.src = a;
  path.dst = b;
  path.start_slice = 0;
  for (int i = 0; i <= kBounces; ++i) {
    path.hops.push_back({i % 2 == 0 ? a : c, 0, 0});
  }
  path.hops.push_back({c, 0, to_b});
  const std::size_t len = path.hops.size();
  ASSERT_GT(len, 65536u);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing({path}, LookupMode::SourceRouting,
                                 MultipathMode::None))
      << ctl.last_error();
  ASSERT_EQ(net->tor(a).tft().lookup(0, a, b).select(0).rest.size(),
            len - 1);
  net->start();
  int got = 0;
  int hops = 0;
  net->host(b).bind_flow(7, [&](Packet&& p) {
    ++got;
    hops = p.hops;
    EXPECT_EQ(p.source_route.size(), len - 1);
    EXPECT_FALSE(p.has_source_route());
  });
  net->sim().schedule_at(1_us, [&]() {
    net->host(a).send(data_packet(b, 1500));
  });
  net->sim().run_until(2000_ms);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(hops, static_cast<int>(len));
}

// UCMP on an 8-ToR rotor: source-routed, per-packet multipath, and the
// deferral response, which swaps a congested packet's route for a later
// slice's. Every delivery (packet, hops, time) is folded into one digest,
// pinned from the simulator before packets held their route in a heap
// block, so route handling cannot drift.
TEST(Network, UcmpSourceRoutedDeliveriesArePinned) {
  NetworkConfig cfg;
  cfg.congestion_response = CongestionResponse::Defer;
  auto net = make_rotor_net(cfg, 8, 1, 10_us);
  Controller ctl(*net);
  ASSERT_TRUE(ctl.deploy_routing(routing::ucmp(net->schedule()),
                                 LookupMode::SourceRouting,
                                 MultipathMode::PerPacket));
  net->start();
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a
  auto fold = [&digest](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest = (digest ^ static_cast<std::uint64_t>((v >> (8 * i)) & 0xff)) *
               1099511628211ULL;
    }
  };
  int got = 0;
  for (HostId h = 0; h < 8; ++h) {
    net->host(h).bind_default([&, h](Packet&& p) {
      ++got;
      fold(h);
      fold(p.id);
      fold(p.hops);
      fold(net->sim().now().ns());
    });
  }
  for (int round = 0; round < 40; ++round) {
    net->sim().schedule_at(SimTime::micros(1 + 5 * round), [&net, round]() {
      for (HostId src = 0; src < 8; ++src) {
        const HostId dst = (src + 1 + round % 7) % 8;
        for (int i = 0; i < 6; ++i) {
          net->host(src).send(data_packet(dst, 9000, src * 100 + round));
        }
      }
    });
  }
  net->sim().run_until(3_ms);
  std::int64_t deferrals = 0;
  for (NodeId n = 0; n < 8; ++n) deferrals += net->tor(n).deferrals();
  EXPECT_EQ(got, 1920);  // every packet sent
  EXPECT_EQ(deferrals, 1499);
  EXPECT_EQ(net->totals().congestion_drops, 0);
  EXPECT_EQ(digest, 15419012930355514113ULL);
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
  EXPECT_TRUE(net->host(0).send(data_packet(1, 1500)));
  EXPECT_TRUE(net->host(0).send(data_packet(1, 1500)));
  EXPECT_FALSE(net->host(0).send(data_packet(1, 1500)));  // full: rejected
  EXPECT_TRUE(net->host(0).would_block(1));
  net->host(0).resume_dst(1);
  net->sim().run_until(1_ms);
  EXPECT_EQ(net->host(0).segment_bytes(1), 0);  // drained once resumed
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
