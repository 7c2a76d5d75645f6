#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>

#include "arch/arch.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "services/circuit_gate.h"
#include "services/collector.h"
#include "services/failure_recovery.h"
#include "services/flow_aging.h"
#include "services/health_scanner.h"
#include "services/hybrid_steering.h"
#include "services/monitor.h"
#include "services/sync_watchdog.h"
#include "telemetry/profiler.h"
#include "topo/round_robin.h"
#include "transport/flow_transfer.h"
#include "transport/tcp_lite.h"
#include "transport/tdtcp.h"
#include "transport/trim_retx.h"
#include "transport/udp_probe.h"

namespace oo::services {
namespace {

using namespace oo::literals;
using core::Controller;
using core::LookupMode;
using core::MultipathMode;
using core::Network;
using core::NetworkConfig;

TEST(FlowAging, ElephantAfterThreshold) {
  FlowAging aging(1 << 20, 10_ms);
  EXPECT_FALSE(aging.observe(1, 512 << 10, 1_ms));
  EXPECT_FALSE(aging.is_elephant(1, 1_ms));
  EXPECT_TRUE(aging.observe(1, 512 << 10, 2_ms));
  EXPECT_TRUE(aging.is_elephant(1, 2_ms));
  EXPECT_EQ(aging.bytes_of(1), 1 << 20);
}

TEST(FlowAging, IdleFlowsAgeOut) {
  FlowAging aging(1000, 10_ms);
  EXPECT_TRUE(aging.observe(1, 2000, 0_ms));
  // After the idle horizon the classification resets.
  EXPECT_FALSE(aging.is_elephant(1, 20_ms));
  EXPECT_FALSE(aging.observe(1, 100, 21_ms));  // counter restarted
  aging.expire(40_ms);
  EXPECT_EQ(aging.tracked(), 0u);
}

TEST(FlowAging, IndependentFlows) {
  FlowAging aging(1000, 10_ms);
  aging.observe(1, 2000, 1_ms);
  EXPECT_FALSE(aging.is_elephant(2, 1_ms));
  EXPECT_EQ(aging.bytes_of(2), 0);
}

std::unique_ptr<Network> make_rotor_net(int tors) {
  NetworkConfig cfg;
  cfg.num_tors = tors;
  cfg.calendar_mode = true;
  optics::Schedule sched(tors, 1, topo::round_robin_period(tors), 100_us);
  for (const auto& c : topo::round_robin_1d(tors, 1)) sched.add_circuit(c);
  auto net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  Controller ctl(*net);
  ctl.deploy_routing(routing::direct_to(net->schedule()), LookupMode::PerHop,
                     MultipathMode::None);
  net->start();
  return net;
}

TEST(CircuitGate, PausedUntilCircuitUp) {
  auto net = make_rotor_net(4);
  CircuitGate gate(*net);
  gate.gate(0, 2);
  gate.start();
  EXPECT_TRUE(net->host(0).paused(2) ||
              net->schedule().neighbors(0, 0).front().first == 2);
  // Over a full cycle the gate must open at least once and close again.
  int opened = 0, closed = 0;
  for (int i = 0; i < 12; ++i) {
    net->sim().run_until(net->sim().now() + 50_us);
    if (net->host(0).paused(2)) {
      ++closed;
    } else {
      ++opened;
    }
  }
  EXPECT_GT(opened, 0);
  EXPECT_GT(closed, 0);
}

TEST(CircuitGate, GatedTrafficOnlyUsesDirectSlices) {
  auto net = make_rotor_net(4);
  CircuitGate gate(*net);
  gate.gate(0, 2);
  gate.start();
  int got = 0;
  net->host(2).bind_flow(7, [&](core::Packet&&) { ++got; });
  // Enqueue packets continuously; they drain only in direct slices.
  net->sim().schedule_every(10_us, 50_us, [&]() {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = 7;
    p.dst_host = 2;
    p.size_bytes = 1500;
    net->host(0).send(std::move(p));
  });
  net->sim().run_until(3_ms);
  EXPECT_GT(got, 20);  // traffic flows
  EXPECT_EQ(net->totals().fabric_drops, 0);
}

TEST(Collector, PeriodicTmCallback) {
  auto net = make_rotor_net(4);
  int calls = 0;
  double seen_total = 0;
  Collector coll(*net, 1_ms, [&](const topo::TrafficMatrix& tm) {
    ++calls;
    seen_total += tm.total();
  });
  coll.start();
  net->sim().schedule_every(100_us, 100_us, [&]() {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = 9;
    p.dst_host = 1;
    p.size_bytes = 1000;
    net->host(0).send(std::move(p));
  });
  net->sim().run_until(5500_us);
  EXPECT_EQ(calls, 5);
  EXPECT_GT(seen_total, 0.0);
}

TEST(Monitor, SamplesBufferOccupancy) {
  auto net = make_rotor_net(4);
  Monitor mon(*net, 10_us);
  mon.start();
  // Pick the destination whose direct circuit from ToR 0 comes latest, so
  // packets sit in the calendar queue across multiple samples.
  NodeId dst = 1;
  SliceId latest = -1;
  for (NodeId d = 1; d < 4; ++d) {
    const auto hop = net->schedule().next_direct(0, d, 0);
    ASSERT_TRUE(hop.has_value());
    if (hop->slice > latest) {
      latest = hop->slice;
      dst = d;
    }
  }
  net->sim().schedule_at(10_us, [&net, dst]() {
    for (int i = 0; i < 50; ++i) {
      core::Packet p;
      p.type = core::PacketType::Data;
      p.flow = 9;
      p.dst_host = dst;
      p.size_bytes = 9000;
      net->host(0).send(std::move(p));
    }
  });
  net->sim().run_until(2_ms);
  EXPECT_GT(mon.all_buffer_samples().count(), 10u);
  EXPECT_GT(mon.peak_buffer(0), 0);
  EXPECT_GT(mon.all_buffer_samples().max(), 0.0);
}

TEST(HybridSteering, ElephantsPinnedToCircuit) {
  NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = false;
  cfg.electrical_bw = 10e9;
  optics::Schedule sched(4, 1, 1, SimTime::seconds(3600));
  sched.add_circuit({0, 0, 2, 0, kAnySlice});
  Network net(cfg, sched, optics::ocs_mems());
  HybridSteering steering(net, /*elephant_bytes=*/10000, 10_ms);

  core::Packet p;
  p.flow = 5;
  p.dst_node = 2;
  p.size_bytes = 1500;
  steering.prepare(p, 0);
  EXPECT_TRUE(p.source_route.empty());  // mouse: default route

  core::Packet q;
  q.flow = 5;
  q.dst_node = 2;
  q.size_bytes = 20000;  // pushes the flow over the threshold
  steering.prepare(q, 0);
  ASSERT_FALSE(q.source_route.empty());  // elephant: pinned to uplink 0
  EXPECT_EQ(q.source_route[0].egress, 0);

  // Elephant to a destination without a circuit stays on the default.
  core::Packet r;
  r.flow = 6;
  r.dst_node = 1;
  r.size_bytes = 50000;
  steering.prepare(r, 0);
  EXPECT_TRUE(r.source_route.empty());
  EXPECT_EQ(steering.steered_packets(), 1);
}

// ---- lifetime: a destroyed service leaves nothing behind ----

// Events executed by a hybrid rotor that runs 1 ms, lets `scoped` build,
// start and destroy a service, then runs 2 ms more with a port failing
// halfway (so LOS listeners left behind would fire too). A service that
// cancels its timers and mutes its listeners on destruction leaves the
// count equal to a twin run that never had the service.
std::int64_t events_after(const std::function<void(arch::Instance&)>& scoped) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  inst.run_for(1_ms);
  if (scoped) scoped(inst);
  inst.net->sim().schedule_in(1_ms, [net = inst.net.get()]() {
    net->optical().set_port_failed(0, 0, true);
  });
  inst.run_for(2_ms);
  return inst.net->sim().events_executed();
}

bool direct_reroute(const optics::Schedule& s, core::PathSink sink) {
  return routing::direct_to(s, sink);
}

TEST(ServiceLifetime, SyncWatchdogCancelsItsCheckTimer) {
  const std::int64_t bare = events_after(nullptr);
  EXPECT_EQ(events_after([](arch::Instance& inst) {
              SyncWatchdog watchdog(*inst.net);
              watchdog.start();
            }),
            bare);
}

TEST(ServiceLifetime, HealthScannerCancelsItsBoundaryTimer) {
  const std::int64_t bare = events_after(nullptr);
  EXPECT_EQ(events_after([](arch::Instance& inst) {
              HealthScanner scanner(*inst.net);
              scanner.set_controller(inst.ctl.get());
              scanner.start();
            }),
            bare);
}

TEST(ServiceLifetime, FailureRecoveryMutesScrubListenersAndRetries) {
  const std::int64_t bare = events_after(nullptr);
  EXPECT_EQ(events_after([](arch::Instance& inst) {
              FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute);
              recovery.start();
            }),
            bare);

  // A deploy retry armed before destruction fires into a muted closure:
  // the dead service never redeploys or re-arms.
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  inst.ctl->set_deploy_fail(true);
  {
    FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute);
    recovery.start();
    EXPECT_FALSE(recovery.recover_now());
    EXPECT_EQ(recovery.retries(), 1);
  }
  inst.run_for(2_ms);
  EXPECT_EQ(inst.net->sim().metrics().counter_value("recovery.retries"), 1);
}

// A deploy transaction still in flight on a modeled southbound when the
// recovery is destroyed resolves into a muted callback: the dead service
// records no recovery. Covers a started recovery and a bare recover_now().
TEST(ServiceLifetime, FailureRecoveryMutesInFlightDeployCommit) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  core::SouthboundConfig sb;
  sb.latency = 50_us;
  inst.ctl->southbound().configure(sb);
  const std::uint64_t epoch = inst.ctl->committed_epoch();
  {
    FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute);
    recovery.start();
    EXPECT_TRUE(recovery.recover_now());
    EXPECT_TRUE(inst.ctl->txn_in_flight());
  }
  inst.run_for(2_ms);
  EXPECT_FALSE(inst.ctl->txn_in_flight());
  EXPECT_EQ(inst.ctl->committed_epoch(), epoch + 1);
  {
    FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute);
    EXPECT_TRUE(recovery.recover_now());
    EXPECT_TRUE(inst.ctl->txn_in_flight());
  }
  inst.run_for(2_ms);
  EXPECT_EQ(inst.ctl->committed_epoch(), epoch + 2);
  EXPECT_EQ(inst.net->sim().metrics().counter_value("recovery.recoveries"), 0);
}

TEST(ServiceLifetime, MonitorCancelsItsSamplingTimer) {
  const std::int64_t bare = events_after(nullptr);
  EXPECT_EQ(events_after([](arch::Instance& inst) {
              Monitor monitor(*inst.net, 100_us);
              monitor.start();
            }),
            bare);
}

// Events a direct rotor executes from 4 to 8 ms at `shards`, when `build`
// makes and starts a transport (host 0 to host 5) at 10 us that a
// control-queue event destroys `life` later; with no `build`, the bare
// rotor's. The profiler watches from the destruction on and `seen`
// collects the tags it timed: every event unsharded, control-queue events
// at shards=1.
using BuildTransport = std::function<std::shared_ptr<void>(core::Network&)>;

std::int64_t quiet_events(int shards, SimTime life,
                          const BuildTransport& build,
                          std::set<std::string>* seen) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.seed = 7;
  p.shards = shards;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  sim::Simulator& sim = inst.net->sim();
  telemetry::EventProfiler prof;
  std::shared_ptr<void> transport;
  if (build) {
    sim.schedule_at(10_us, [&]() { transport = build(*inst.net); });
    sim.schedule_at(10_us + life, [&]() {
      transport.reset();
      sim.set_profiler(&prof);
    });
  }
  inst.run_for(4_ms);
  const std::int64_t before = sim.events_executed();
  inst.run_for(4_ms);
  sim.set_profiler(nullptr);
  if (seen != nullptr) {
    for (const auto& b : prof.buckets()) seen->insert(b.tag);
  }
  return sim.events_executed() - before;
}

// A transport destroyed with timers armed, unsharded and at shards=1,
// leaves nothing behind: no event tagged with one of its timers' `tags`
// runs after it dies, and once its packets have drained (by 4 ms; a
// 7-slice cycle is 0.7 ms) the run executes exactly the bare rotor's
// events, so no periodic timer outlives it. Every timer closure holds only
// `this`, so asan flags any callback into the dead transport, lane-armed
// timers at shards=1 included.
void expect_nothing_outlives(SimTime life, const BuildTransport& build,
                             std::initializer_list<const char*> tags) {
  for (int shards : {0, 1}) {
    std::set<std::string> seen;
    EXPECT_EQ(quiet_events(shards, life, build, &seen),
              quiet_events(shards, life, nullptr, nullptr))
        << "shards " << shards;
    for (const char* tag : tags) {
      EXPECT_EQ(seen.count(tag), 0u) << tag << ", shards " << shards;
    }
  }
}

// Destroyed at 2 us the RTO is still the one start() armed on the control
// queue; destroyed at 300 us, acks have re-armed it, on the sender's lane
// when sharded. Either way the run goes past the 5 ms RTO.
TEST(ServiceLifetime, FlowTransferDestroyedWithArmedRtoFiresNothing) {
  for (SimTime life : {2_us, 300_us}) {
    expect_nothing_outlives(
        life,
        [](core::Network& net) {
          auto xfer = std::make_shared<transport::FlowTransfer>(
              net, 0, 5, 8 << 20, transport::FlowTransferConfig{},
              [](SimTime, std::int64_t) { ADD_FAILURE() << "completed"; });
          xfer->start();
          return xfer;
        },
        {"tcp.rto"});
  }
}

// Destroyed 5 us after start: the reTCP per-slice timer, the pacing pump
// (one 40 Gb/s segment is 1.8 us) and the RTO are all armed.
TEST(ServiceLifetime, TcpLiteDestroyedWithRetcpAndPacingArmedFiresNothing) {
  expect_nothing_outlives(
      5_us,
      [](core::Network& net) {
        transport::TcpConfig cfg;
        cfg.retcp_bandwidth_ratio = 10.0;
        auto tcp = std::make_shared<transport::TcpLite>(net, 0, 5, cfg);
        tcp->start();
        return tcp;
      },
      {"tcp.rto", "tcp.pace", "tcp.retcp"});
}

// Destroyed 30 us after start: the first phase's 10-segment window went
// out in 18 us and no ack can return before the 0-5 circuit comes up, so
// the next-slice pump is armed.
TEST(ServiceLifetime, TdtcpLiteDestroyedWithNextSlicePumpArmedFiresNothing) {
  expect_nothing_outlives(
      30_us,
      [](core::Network& net) {
        auto tcp = std::make_shared<transport::TdtcpLite>(
            net, 0, 5, transport::TcpConfig{});
        tcp->start();
        return tcp;
      },
      {"tcp.rto", "tdtcp.pump"});
}

TEST(ServiceLifetime, TrimRetxDestroyedWithArmedRtoFiresNothing) {
  expect_nothing_outlives(
      300_us,
      [](core::Network& net) {
        auto xfer = std::make_shared<transport::TrimRetxTransfer>(
            net, 0, 5, 8 << 20, transport::FlowTransferConfig{},
            [](SimTime, std::int64_t) { ADD_FAILURE() << "completed"; });
        xfer->start();
        return xfer;
      },
      {"tcp.rto"});
}

// A probe every 10 us with a 20 us timeout: each one sent in the 100 us
// before the destruction still has its timeout or a retry armed.
TEST(ServiceLifetime, UdpProbeDestroyedWithTimeoutsOutstandingFiresNothing) {
  expect_nothing_outlives(
      300_us,
      [](core::Network& net) {
        auto probe = std::make_shared<transport::UdpProbe>(net, 0, 5, 10_us,
                                                           256);
        probe->set_timeout(20_us, 80_us, 3);
        probe->start();
        return probe;
      },
      {"probe"});
}

TEST(ServiceLifetime, CollectorCancelsItsCollectionTimer) {
  const std::int64_t bare = events_after(nullptr);
  int calls = 0;
  EXPECT_EQ(events_after([&calls](arch::Instance& inst) {
              Collector collector(*inst.net, 100_us,
                                  [&calls](const topo::TrafficMatrix&) {
                                    ++calls;
                                  });
              collector.start();
            }),
            bare);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace oo::services
