// Cross-module integration scenarios: reconfiguration under live traffic,
// offload round-trip timing, push-back end-to-end, guardband sizing, and
// whole-architecture determinism.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "core/controller.h"
#include "core/guardband.h"
#include "routing/to_routing.h"
#include "services/circuit_gate.h"
#include "topo/round_robin.h"
#include "topo/sorn.h"
#include "traffic/engine.h"
#include "transport/tcp_lite.h"
#include "workload/kv.h"
#include "workload/traces.h"

namespace oo {
namespace {

using namespace oo::literals;
using core::Controller;
using core::LookupMode;
using core::MultipathMode;
using core::Network;
using core::NetworkConfig;

TEST(Integration, ReconfigurationUnderLiveTraffic) {
  // A TO fabric whose schedule is swapped mid-run (same period) keeps
  // delivering: make-before-break routing plus unchanged-circuit carry.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.calendar_mode = true;
  const SliceId period = 2 * topo::round_robin_period(8);
  topo::TrafficMatrix uniform(8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j)
      if (i != j) uniform.at(i, j) = 1.0;
  optics::Schedule sched(8, 1, period, 100_us);
  for (const auto& c : topo::sorn(uniform, 8, period)) sched.add_circuit(c);
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);
  ASSERT_TRUE(ctl.deploy_routing(routing::vlb(sched), LookupMode::PerHop,
                                 MultipathMode::PerPacket));
  net.start();

  workload::KvWorkload kv(net, 0, {1, 2, 3, 4, 5, 6, 7}, 1_ms);
  kv.start();
  // Swap to a skewed schedule at t=20ms.
  net.sim().schedule_at(20_ms, [&]() {
    topo::TrafficMatrix skew = uniform;
    skew.at(1, 0) = 1000.0;
    auto circuits = topo::sorn(skew, 8, period);
    optics::Schedule next;
    ASSERT_TRUE(ctl.compile_schedule(circuits, period, next));
    ASSERT_TRUE(ctl.deploy_routing(routing::vlb(next), LookupMode::PerHop,
                                   MultipathMode::PerPacket, 1, &next));
    ASSERT_TRUE(ctl.deploy_topo(circuits, period, 20_us));
  });
  net.sim().run_until(60_ms);
  kv.stop();
  EXPECT_GT(kv.ops_completed(), 300);
  EXPECT_EQ(net.totals().no_route_drops, 0);
  // After the swap the hot pair has more direct slices.
  int hot = 0;
  for (SliceId s = 0; s < period; ++s) {
    for (const auto& [v, port] : net.schedule().neighbors(1, s)) {
      (void)port;
      if (v == 0) ++hot;
    }
  }
  EXPECT_GT(hot, 2);
}

TEST(Integration, OffloadedPacketsReturnBeforeTheirSlice) {
  // With a tight calendar horizon, offloaded packets must be back on the
  // switch in time: delivery happens in (or right after) the direct slice,
  // never a cycle late.
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.calendar_mode = true;
  cfg.offload = true;
  cfg.calendar_queues = 2;
  optics::Schedule sched(8, 1, topo::round_robin_period(8), 100_us);
  for (const auto& c : topo::round_robin_1d(8, 1)) sched.add_circuit(c);
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(sched),
                                 LookupMode::PerHop, MultipathMode::None));
  net.start();

  // Find the farthest destination (rank near the period).
  NodeId far = kInvalidNode;
  SliceId far_slice = 0;
  for (NodeId d = 1; d < 8; ++d) {
    const auto hop = net.schedule().next_direct(0, d, 0);
    if (hop && hop->slice > far_slice) {
      far_slice = hop->slice;
      far = d;
    }
  }
  ASSERT_GE(far_slice, 3);

  SimTime arrival;
  net.host(far).bind_flow(7, [&](core::Packet&&) {
    arrival = net.sim().now();
  });
  net.sim().schedule_at(5_us, [&]() {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = 7;
    p.dst_host = far;
    p.size_bytes = 1500;
    net.host(0).send(std::move(p));
  });
  net.sim().run_until(3_ms);
  EXPECT_GT(net.tor(0).offloads(), 0);
  ASSERT_GT(arrival, SimTime::zero());
  // Delivered within the first cycle's direct slice window (+fabric time),
  // not one cycle late.
  const SimTime slice_end =
      net.schedule().slice_start(far_slice + 1) + 10_us;
  EXPECT_LE(arrival, slice_end);
}

// Open-loop trace traffic, one arrival stream per host: raw packet trains
// of one trace's flow sizes at `load`, each flow paced at `pace` (0 = host
// line rate).
traffic::TrafficSpec open_loop_trace(const Network& net,
                                     workload::TraceKind kind, double load,
                                     BitsPerSec pace, std::uint64_t seed) {
  traffic::TrafficSpec spec;
  spec.sources = net.num_hosts();
  spec.load = load;
  spec.seed = seed;
  spec.size.base = workload::trace_cdf(kind);
  spec.transfer.mss = 8936;
  spec.open_loop = true;
  spec.flow_pace_bps = pace;
  return spec;
}

TEST(Integration, PushbackEliminatesOverloadLoss) {
  auto run = [](bool pushback, std::uint64_t seed) {
    arch::Params p;
    p.tors = 16;
    p.hosts_per_tor = 2;
    p.bw = 10e9;
    p.uplinks = 2;
    p.slice = 300_us;
    p.queue_capacity = 768 << 10;
    p.seed = seed;
    auto inst = arch::make_rotornet(p, arch::RotorRouting::Hoho);
    auto& cfg = const_cast<core::NetworkConfig&>(inst.net->config());
    cfg.pushback = pushback;
    traffic::TrafficEngine traffic(
        *inst.net, open_loop_trace(*inst.net, workload::TraceKind::Rpc, 0.7,
                                   3e9, seed));
    traffic.start();
    inst.run_for(10_ms);
    traffic.stop();
    const auto t = inst.net->totals();
    return std::pair<std::int64_t, std::int64_t>(
        t.congestion_drops + t.fabric_drops, t.delivered);
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto [loss_without, del_without] = run(false, seed);
    const auto [loss_with, del_with] = run(true, seed);
    EXPECT_GT(del_without, 0) << "seed " << seed;
    EXPECT_GT(del_with, 0) << "seed " << seed;
    // Push-back never makes loss worse, and eliminates it here (Tab. 4).
    EXPECT_LE(loss_with, loss_without) << "seed " << seed;
    EXPECT_EQ(loss_with, 0) << "seed " << seed;
  }
}

TEST(Integration, TorBufferTotalMatchesPortQueues) {
  // buffer_bytes() is a running total; it must equal the sum over the
  // uplink queues through deferral, slice misses and, with a 3-queue
  // calendar, offloads and their returns, and never exceed its peak.
  for (const bool offload : {false, true}) {
    arch::Params p;
    p.tors = 8;
    p.hosts_per_tor = 2;
    p.bw = 10e9;
    p.uplinks = 2;
    p.offload = offload;
    p.calendar_queues = offload ? 3 : 0;
    p.seed = 3;
    auto inst = arch::make_opera(p, /*bulk=*/true);
    traffic::TrafficEngine traffic(
        *inst.net, open_loop_trace(*inst.net, workload::TraceKind::Hadoop,
                                   0.7, 0, 3));
    traffic.start();
    const int ports = inst.net->schedule().uplinks();
    int busy = 0;
    for (int i = 0; i < 1000; ++i) {
      inst.run_for(7_us);
      for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
        const auto& tor = inst.net->tor(n);
        std::int64_t scan = 0;
        for (PortId port = 0; port < ports; ++port) {
          scan += tor.port_buffer_bytes(port);
        }
        ASSERT_EQ(tor.buffer_bytes(), scan)
            << "offload " << offload << " node " << n << " sample " << i;
        ASSERT_GE(tor.peak_buffer_bytes(), tor.buffer_bytes())
            << "offload " << offload << " node " << n << " sample " << i;
        busy += scan > 0;
      }
    }
    traffic.stop();
    EXPECT_GT(busy, 0) << "offload " << offload;
  }
}

TEST(Integration, GuardbandSizingControlsLoss) {
  auto run = [](SimTime guard) {
    NetworkConfig cfg;
    cfg.num_tors = 4;
    cfg.calendar_mode = true;
    cfg.guardband = guard;
    optics::Schedule sched(4, 1, 3, 2_us);
    for (const auto& c : topo::round_robin_1d(4, 1)) sched.add_circuit(c);
    Network net(cfg, sched, optics::ocs_awgr());
    Controller ctl(net);
    ctl.deploy_routing(routing::direct_to(sched), LookupMode::PerHop,
                       MultipathMode::None);
    net.start();
    workload::KvWorkload kv(net, 0, {1, 2, 3}, 500_us, 1400);
    kv.start();
    net.sim().run_until(20_ms);
    return net.optical().total_drops();
  };
  const auto derived = core::derive_guardband(core::GuardbandInputs{});
  EXPECT_EQ(run(derived.guardband), 0);       // §7: no loss at 200 ns
  EXPECT_GT(run(SimTime::nanos(40)), 0);      // under-sized guard loses
}

TEST(Integration, CircuitGateZeroReorderTcp) {
  // Gated direct-circuit TCP: duty-cycle throughput with zero reordering
  // (Fig. 9's direct row).
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.host_segment_queue = 64 << 10;
  cfg.calendar_queues = 4;
  cfg.congestion_response = core::CongestionResponse::Defer;
  optics::Schedule sched(4, 1, 2, 100_us);
  sched.add_circuit({0, 0, 2, 0, 0});
  sched.add_circuit({1, 0, 3, 0, 0});
  sched.add_circuit({0, 0, 3, 0, 1});
  sched.add_circuit({1, 0, 2, 0, 1});
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);
  ASSERT_TRUE(ctl.deploy_routing(routing::direct_to(sched),
                                 LookupMode::PerHop, MultipathMode::None));
  net.start();
  services::CircuitGate gate(net);
  gate.gate(0, 2);
  gate.start();
  transport::TcpConfig tcfg;
  tcfg.app_rate_cap = 40e9;
  transport::TcpLite tcp(net, 0, 2, tcfg);
  tcp.start();
  net.sim().run_until(40_ms);
  EXPECT_EQ(tcp.reorder_events(), 0);
  // Roughly half the CPU-bound ceiling (50% duty).
  EXPECT_GT(tcp.goodput_bps(), 15e9);
  EXPECT_LT(tcp.goodput_bps(), 28e9);
}

TEST(Integration, ArchitecturesAreDeterministic) {
  auto fingerprint = [](std::uint64_t seed) {
    arch::Params p;
    p.tors = 8;
    p.seed = seed;
    p.slice = 100_us;
    auto inst = arch::make_rotornet(p, arch::RotorRouting::Vlb);
    workload::KvWorkload kv(*inst.net, 0, {1, 2, 3, 4, 5, 6, 7}, 1_ms);
    kv.start();
    inst.run_for(50_ms);
    return std::tuple<std::int64_t, double, std::int64_t>(
        kv.ops_completed(), kv.fct_us().mean(),
        inst.net->totals().delivered);
  };
  EXPECT_EQ(fingerprint(11), fingerprint(11));
  EXPECT_NE(fingerprint(11), fingerprint(12));
}

TEST(Integration, TcpMessageModeCompletes) {
  // Finite-message TcpLite (allreduce building block) over a rotor.
  arch::Params p;
  p.tors = 8;
  p.uplinks = 2;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  transport::TcpConfig cfg;
  cfg.app_rate_cap = 0;
  cfg.rto = 3_ms;
  transport::TcpLite tcp(*inst.net, 0, 4, cfg);
  SimTime fct;
  tcp.set_message(4 << 20, [&](SimTime t) { fct = t; });
  tcp.start();
  inst.run_for(500_ms);
  ASSERT_TRUE(tcp.finished());
  EXPECT_GT(fct, 300_us);  // 4 MB cannot beat wire time
  EXPECT_LT(fct, 100_ms);
}

TEST(Integration, OpenLoopReplayPacingSpreadsBursts) {
  auto peak_backlog = [](BitsPerSec pace, std::uint64_t seed) {
    arch::Params p;
    p.tors = 8;
    p.hosts_per_tor = 1;
    p.bw = 10e9;
    p.slice = 100_us;
    p.seed = seed;
    auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
    traffic::TrafficEngine traffic(
        *inst.net, open_loop_trace(*inst.net, workload::TraceKind::Hadoop,
                                   0.5, pace, seed));
    traffic.start();
    inst.run_for(10_ms);
    std::int64_t peak = 0;
    for (NodeId n = 0; n < 8; ++n) {
      peak = std::max(peak, inst.net->tor(n).peak_buffer_bytes());
    }
    return peak;
  };
  // Line-rate bursts pile deeper switch backlogs than paced flows. One
  // seed's peak is a single extreme, so compare the sums over five.
  std::int64_t line_rate = 0, paced = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    line_rate += peak_backlog(0, seed);
    paced += peak_backlog(1e9, seed);
  }
  EXPECT_GT(line_rate, paced);
}

}  // namespace
}  // namespace oo
