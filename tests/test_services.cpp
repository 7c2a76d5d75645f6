#include <gtest/gtest.h>

#include <functional>
#include <memory>

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

std::vector<core::Path> direct_reroute(const optics::Schedule& s) {
  return routing::direct_to(s);
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

// A transfer destroyed from a control-queue event while its RTO is armed,
// unsharded and at shards=1, then run past the 5 ms RTO. The timer's
// closure holds only `this`; the destructor's cancel must keep it from
// ever running (asan flags a callback into the dead transfer). Destroyed at
// 2 us the RTO is still the one start() armed on the control queue, which
// the profiler watches: it dispatches no tcp.rto event. Destroyed at
// 300 us, acks have re-armed it, on the sender's lane when sharded.
TEST(ServiceLifetime, FlowTransferDestroyedWithArmedRtoFiresNothing) {
  for (int shards : {0, 1}) {
    for (SimTime life : {2_us, 300_us}) {
      arch::Params p;
      p.tors = 8;
      p.hosts_per_tor = 1;
      p.uplinks = 1;
      p.seed = 7;
      p.shards = shards;
      auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
      sim::Simulator& sim = inst.net->sim();
      telemetry::EventProfiler prof;
      sim.set_profiler(&prof);
      int done = 0;
      std::unique_ptr<transport::FlowTransfer> transfer;
      sim.schedule_at(10_us, [&]() {
        transfer = std::make_unique<transport::FlowTransfer>(
            *inst.net, 0, 5, 8 << 20, transport::FlowTransferConfig{},
            [&done](SimTime, std::int64_t) { ++done; });
        transfer->start();
      });
      sim.schedule_at(10_us + life, [&]() {
        EXPECT_FALSE(transfer->finished());
        transfer.reset();
      });
      inst.run_for(10_ms);
      sim.set_profiler(nullptr);
      EXPECT_EQ(transfer, nullptr);
      EXPECT_EQ(done, 0);
      for (const auto& b : prof.buckets()) {
        EXPECT_NE(b.tag, "tcp.rto") << "shards " << shards << " life " << life.ns();
      }
    }
  }
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
