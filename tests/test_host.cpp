// Host stack behaviours (§5 host system): socket-style admission, paced
// segment-queue draining, push-back windows, FIFO ordering, send hooks,
// and traffic accounting.
#include <gtest/gtest.h>

#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/network.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"

namespace oo::core {
namespace {

using namespace oo::literals;

std::unique_ptr<Network> make_net(NetworkConfig cfg = {}) {
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  optics::Schedule sched(4, 1, topo::round_robin_period(4), 100_us);
  for (const auto& c : topo::round_robin_1d(4, 1)) sched.add_circuit(c);
  auto net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  Controller ctl(*net);
  ctl.deploy_routing(routing::direct_to(net->schedule()), LookupMode::PerHop,
                     MultipathMode::None);
  net->start();
  return net;
}

Packet data(HostId dst, std::int64_t bytes, FlowId flow = 1) {
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow;
  p.dst_host = dst;
  p.size_bytes = bytes;
  return p;
}

TEST(Host, CanBufferSemantics) {
  NetworkConfig cfg;
  cfg.host_segment_queue = 3000;
  auto net = make_net(cfg);
  auto& h = net->host(0);
  // Fast path open: always writable.
  EXPECT_TRUE(h.can_buffer(1, 1500));
  EXPECT_TRUE(h.can_buffer(1, 1 << 20));  // fast path ignores queue size
  h.pause_dst(1);
  EXPECT_TRUE(h.can_buffer(1, 1500));   // queue has room
  EXPECT_FALSE(h.can_buffer(1, 4000));  // exceeds segment queue
  h.send(data(1, 1500));
  h.send(data(1, 1500));
  EXPECT_FALSE(h.can_buffer(1, 1500));  // 3000/3000 used
  h.resume_dst(1);
  net->sim().run_until(1_ms);
  EXPECT_TRUE(h.can_buffer(1, 1500));
}

TEST(Host, StackPreservesFifoOrder) {
  auto net = make_net();
  std::vector<std::int64_t> seqs;
  net->host(1).bind_flow(1, [&](Packet&& p) { seqs.push_back(p.seq); });
  net->sim().schedule_at(1_us, [&]() {
    for (int i = 0; i < 50; ++i) {
      auto p = data(1, 1500);
      p.seq = i;
      net->host(0).send(std::move(p));
    }
  });
  net->sim().run_until(5_ms);
  ASSERT_EQ(seqs.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seqs[static_cast<size_t>(i)], i);
}

TEST(Host, PumpPacedAtLineRate) {
  // 20 parked jumbo packets resume: they must reach the ToR no faster than
  // host line rate (not as one instantaneous burst).
  auto net = make_net();
  auto& h = net->host(0);
  h.pause_dst(2);
  for (int i = 0; i < 20; ++i) h.send(data(2, 9000));
  std::vector<SimTime> arrivals;
  net->host(2).bind_flow(1, [&](Packet&&) {
    arrivals.push_back(net->sim().now());
  });
  h.resume_dst(2);
  net->sim().run_until(5_ms);
  ASSERT_EQ(arrivals.size(), 20u);
  // 20 x 9000 B at 100 Gbps needs >= 13.7 us of wire time; deliveries
  // spread accordingly (possibly across multiple direct slices).
  EXPECT_GE((arrivals.back() - arrivals.front()).ns(), 12'000);
}

TEST(Host, PumpRoundRobinsAcrossDestinations) {
  auto net = make_net();
  auto& h = net->host(0);
  h.pause_dst(1);
  h.pause_dst(2);
  for (int i = 0; i < 5; ++i) {
    h.send(data(1, 9000, 1));
    h.send(data(2, 9000, 2));
  }
  int got1 = 0, got2 = 0;
  net->host(1).bind_flow(1, [&](Packet&&) { ++got1; });
  net->host(2).bind_flow(2, [&](Packet&&) { ++got2; });
  h.resume_dst(1);
  h.resume_dst(2);
  net->sim().run_until(5_ms);
  EXPECT_EQ(got1, 5);
  EXPECT_EQ(got2, 5);
}

TEST(Host, PushbackWindowExpires) {
  auto net = make_net();
  auto& h = net->host(0);
  int got = 0;
  net->host(1).bind_flow(1, [&](Packet&&) { ++got; });
  net->sim().schedule_at(10_us, [&]() {
    h.pushback_dst(1, net->sim().now() + 300_us);
    h.send(data(1, 1500));
  });
  net->sim().run_until(200_us);
  EXPECT_EQ(got, 0);  // still blocked
  EXPECT_GT(h.segment_bytes(1), 0);
  net->sim().run_until(3_ms);
  EXPECT_EQ(got, 1);  // drained after expiry
}

TEST(Host, PushbackExtendsNotShrinks) {
  auto net = make_net();
  auto& h = net->host(0);
  net->sim().schedule_at(1_us, [&]() {
    h.pushback_dst(1, net->sim().now() + 500_us);
    h.pushback_dst(1, net->sim().now() + 100_us);  // shorter: ignored
    h.send(data(1, 1500));
  });
  net->sim().run_until(300_us);
  EXPECT_GT(h.segment_bytes(1), 0);  // still held past the short window
}

TEST(Host, SendHookRewritesPackets) {
  auto net = make_net();
  int hook_calls = 0;
  net->host(0).set_send_hook([&](Packet& p) {
    ++hook_calls;
    p.seq = 0xabcd;
  });
  std::int64_t seen = 0;
  net->host(1).bind_flow(1, [&](Packet&& p) { seen = p.seq; });
  net->sim().schedule_at(1_us, [&]() { net->host(0).send(data(1, 1500)); });
  net->sim().run_until(2_ms);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(seen, 0xabcd);
}

TEST(Host, TrafficCountersPerDestination) {
  auto net = make_net();
  auto& h = net->host(0);
  net->sim().schedule_at(1_us, [&]() {
    h.send(data(1, 1000));
    h.send(data(2, 2000));
    h.send(data(2, 3000));
  });
  net->sim().run_until(1_ms);
  EXPECT_EQ(h.sent_bytes_to(1), 1000);
  EXPECT_EQ(h.sent_bytes_to(2), 5000);
  const auto counters = h.take_traffic_counters();
  EXPECT_EQ(counters[1], 1000);
  EXPECT_EQ(counters[2], 5000);
  EXPECT_EQ(h.sent_bytes_to(2), 0);  // drained
}

TEST(Host, DefaultSinkCatchesUnboundFlows) {
  auto net = make_net();
  int caught = 0;
  net->host(1).bind_default([&](Packet&&) { ++caught; });
  net->sim().schedule_at(1_us, [&]() {
    net->host(0).send(data(1, 1500, /*flow=*/999));
  });
  net->sim().run_until(2_ms);
  EXPECT_EQ(caught, 1);
}

// Flow ids as the allocators hand them out: sequential unsharded, and
// lane-prefixed ((lane + 2) << 40 | seq) sharded.
std::vector<FlowId> flow_id_universe(int per_kind) {
  std::vector<FlowId> ids;
  for (int kind = 0; kind < 4; ++kind) {
    for (FlowId seq = 1; seq <= per_kind; ++seq) {
      ids.push_back(kind == 0 ? seq : (FlowId{kind + 1} << 40) | seq);
    }
  }
  return ids;
}

TEST(FlowSinkTable, ChurnMatchesUnorderedMap) {
  // Bind 6000 flows (16 -> 8192 entries: nine doublings), then random
  // rebind / unbind / lookup churn against std::unordered_map. At up to 75%
  // load most erases land inside a probe run, which the backward shift must
  // close without losing a later entry.
  FlowSinkTable table;
  std::unordered_map<FlowId, int> ref;
  const std::vector<FlowId> ids = flow_id_universe(2000);
  Rng rng(11);
  int called = -1;
  const auto bind = [&](FlowId id, int v) {
    table.assign(id, [&called, v](Packet&&) { called = v; });
    ref[id] = v;
  };
  const auto matches = [&](FlowId id) {
    FlowSinkTable::Sink* sink = table.find(id);
    const auto it = ref.find(id);
    if ((sink != nullptr) != (it != ref.end())) return false;
    if (sink == nullptr) return true;
    called = -1;
    (*sink)(Packet{});
    return called == it->second;
  };
  for (int i = 0; i < 6000; ++i) bind(ids[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(table.capacity(), 8192u);
  for (int step = 0; step < 200'000; ++step) {
    const FlowId id = ids[rng.uniform(static_cast<std::uint32_t>(ids.size()))];
    switch (rng.uniform(3)) {
      case 0:
        bind(id, step);
        break;
      case 1:
        table.erase(id);
        ref.erase(id);
        break;
      default:
        break;
    }
    ASSERT_TRUE(matches(id)) << "step " << step << " flow " << id;
    if (step % 20'000 == 0) {
      for (const FlowId any : ids) ASSERT_TRUE(matches(any)) << any;
    }
  }
  EXPECT_EQ(table.size(), ref.size());
  EXPECT_LE(table.size() * 4, table.capacity() * 3);
  for (const FlowId any : ids) EXPECT_TRUE(matches(any)) << any;
  // Neither the Packet default (0) nor the minimum id is ever found.
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(std::numeric_limits<FlowId>::min()), nullptr);
}

TEST(Host, FlowSinkChurnDeliversLikeAnUnorderedMap) {
  // bind/rebind/unbind/deliver on one host; unbound flows and packets with
  // the default flow id 0 reach the default sink.
  auto net = make_net();
  Host& h = net->host(0);
  std::unordered_map<FlowId, int> ref;
  std::vector<FlowId> ids = flow_id_universe(300);
  ids.push_back(0);
  int got = 0;
  h.bind_default([&got](Packet&&) { got = -1; });
  Rng rng(5);
  for (int step = 0; step < 50'000; ++step) {
    const FlowId id = ids[rng.uniform(static_cast<std::uint32_t>(ids.size()))];
    switch (rng.uniform(4)) {
      case 0:
        if (id != 0) {
          h.bind_flow(id, [&got, step](Packet&&) { got = step; });
          ref[id] = step;
        }
        break;
      case 1:
        h.unbind_flow(id);
        ref.erase(id);
        break;
      default: {
        got = -2;
        h.deliver(data(0, 100, id));
        const auto it = ref.find(id);
        ASSERT_EQ(got, it == ref.end() ? -1 : it->second)
            << "step " << step << " flow " << id;
      }
    }
  }
  got = -2;
  h.deliver(Packet{});
  EXPECT_EQ(got, -1);
}

TEST(Host, KernelStackSlowerThanLibvma) {
  // Same-ToR pair so the path is purely host stack + access links (no
  // circuit waits that would mask the stack difference).
  auto delay_of = [](HostStack stack) {
    NetworkConfig cfg;
    cfg.host_stack = stack;
    cfg.hosts_per_tor = 2;
    auto net = make_net(cfg);
    SimTime arrival;
    net->host(1).bind_flow(1, [&](Packet&&) { arrival = net->sim().now(); });
    SimTime sent;
    net->sim().schedule_at(10_us, [&]() {
      sent = net->sim().now();
      net->host(0).send(data(1, 1500));
    });
    net->sim().run_until(5_ms);
    return arrival - sent;
  };
  EXPECT_GT(delay_of(HostStack::Kernel), delay_of(HostStack::Libvma) * 3);
}

}  // namespace
}  // namespace oo::core
