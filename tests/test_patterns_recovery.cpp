// Synthetic traffic patterns and the failure-recovery service.
#include <gtest/gtest.h>

#include <set>

#include "arch/arch.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "topo/round_robin.h"
#include "workload/patterns.h"

namespace oo {
namespace {

using namespace oo::literals;

TEST(Patterns, PermutationIsInterTorDerangement) {
  Rng rng(3);
  const auto flows = workload::permutation_flows(16, 2, 1 << 20, rng);
  EXPECT_GE(flows.size(), 14u);  // near-complete derangement
  std::set<HostId> sources;
  for (const auto& [src, dst, bytes] : flows) {
    EXPECT_NE(src, dst);
    EXPECT_NE(src / 2, dst / 2);  // off-rack
    EXPECT_EQ(bytes, 1 << 20);
    EXPECT_TRUE(sources.insert(src).second);  // each source once
  }
}

TEST(Patterns, IncastTargetsSink) {
  const auto flows = workload::incast_flows(8, 3, 4096);
  EXPECT_EQ(flows.size(), 7u);
  for (const auto& [src, dst, bytes] : flows) {
    EXPECT_EQ(dst, 3);
    EXPECT_NE(src, 3);
    EXPECT_EQ(bytes, 4096);
  }
}

TEST(Patterns, AllToAllCoversEveryInterTorPair) {
  const auto flows = workload::all_to_all_flows(8, 2, 1000);
  // 8 hosts, 2 per ToR: 8*7 ordered pairs minus 8 intra-ToR = 48.
  EXPECT_EQ(flows.size(), 48u);
}

TEST(Patterns, PermutationRoundCompletesOnRotor) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  Rng rng(inst.net->config().seed);
  auto flows = workload::permutation_flows(8, 1, 256 << 10, rng);
  SimTime round;
  bool done = false;
  workload::PatternRun run(*inst.net, std::move(flows), {},
                           [&](SimTime t) {
                             round = t;
                             done = true;
                           });
  run.start();
  inst.run_for(300_ms);
  ASSERT_TRUE(done);
  EXPECT_TRUE(run.finished());
  EXPECT_GT(run.fct_us().count(), 0u);
  EXPECT_GT(round, 20_us);
}

TEST(Patterns, IncastSlowerThanPermutation) {
  auto run_pattern = [](bool incast) {
    arch::Params p;
    p.tors = 8;
    p.hosts_per_tor = 1;
    p.uplinks = 2;
    p.slice = 100_us;
    auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
    Rng rng(7);
    auto flows = incast
                     ? workload::incast_flows(8, 0, 256 << 10)
                     : workload::permutation_flows(8, 1, 256 << 10, rng);
    SimTime round = SimTime::zero();
    workload::PatternRun run(*inst.net, std::move(flows), {},
                             [&](SimTime t) { round = t; });
    run.start();
    inst.run_for(1_s);
    return round;
  };
  const auto incast_t = run_pattern(true);
  const auto perm_t = run_pattern(false);
  ASSERT_GT(incast_t, SimTime::zero());
  ASSERT_GT(perm_t, SimTime::zero());
  // Seven senders share one sink's circuits: fundamentally slower than a
  // permutation where every pair gets its own circuit-time.
  EXPECT_GT(incast_t, perm_t);
}

TEST(FailureRecovery, ReroutesAroundDarkTransceiver) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*poll=*/500_us);
  recovery.start();

  // Steady mice 0 -> 4.
  int got = 0;
  inst.net->host(4).bind_flow(1, [&](core::Packet&&) { ++got; });
  inst.net->sim().schedule_every(50_us, 200_us, [&]() {
    core::Packet pkt;
    pkt.type = core::PacketType::Data;
    pkt.flow = 1;
    pkt.dst_host = 4;
    pkt.size_bytes = 1500;
    inst.net->host(0).send(std::move(pkt));
  });

  inst.run_for(10_ms);
  const int before_failure = got;
  EXPECT_GT(before_failure, 30);

  // Kill one of ToR 0's transceivers mid-run.
  inst.net->optical().set_port_failed(0, 0, true);
  inst.run_for(30_ms);
  EXPECT_GE(recovery.recoveries(), 1);
  const int after_recovery = got;

  // Traffic keeps flowing on the surviving port's circuits.
  inst.run_for(20_ms);
  EXPECT_GT(got, after_recovery + 50);
  // And the replacement routing no longer schedules the dark port.
  const auto& sched = inst.net->schedule();
  for (SliceId s = 0; s < sched.period(); ++s) {
    EXPECT_FALSE(sched.peer(0, 0, s).has_value())
        << "failed port still scheduled at slice " << s;
  }
}

TEST(FailureRecovery, FlapRecoversAndReadmitsPerTransition) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*scrub=*/500_us);
  recovery.start();
  auto& fab = inst.net->optical();

  auto port_scheduled = [&]() {
    const auto& sched = inst.net->schedule();
    for (SliceId s = 0; s < sched.period(); ++s) {
      if (sched.peer(0, 0, s).has_value()) return true;
    }
    return false;
  };

  // fail -> clear -> fail on the same port, no traffic at all: every
  // transition is driven purely by the LOS alarms, and recoveries()
  // increments exactly once per transition.
  fab.set_port_failed(0, 0, true);
  inst.run_for(5_ms);
  EXPECT_EQ(recovery.recoveries(), 1);
  EXPECT_FALSE(port_scheduled());

  fab.set_port_failed(0, 0, false);
  inst.run_for(5_ms);
  EXPECT_EQ(recovery.recoveries(), 2);
  EXPECT_TRUE(port_scheduled()) << "repaired circuits not re-admitted";

  fab.set_port_failed(0, 0, true);
  inst.run_for(5_ms);
  EXPECT_EQ(recovery.recoveries(), 3);
  EXPECT_FALSE(port_scheduled());

  EXPECT_EQ(recovery.port_downs(), 2);
  EXPECT_EQ(recovery.port_ups(), 1);
  EXPECT_EQ(recovery.mttr_us().count(), 2u);
}

TEST(FailureRecovery, NoFalseRecoveriesWhenHealthy) {
  arch::Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      500_us);
  // Never started, nothing ran: every counter is zero, nothing is sampled,
  // and availability is exactly 1 over the empty horizon.
  EXPECT_EQ(recovery.port_downs(), 0);
  EXPECT_EQ(recovery.port_ups(), 0);
  EXPECT_EQ(recovery.recoveries(), 0);
  EXPECT_EQ(recovery.retries(), 0);
  EXPECT_TRUE(recovery.detect_latency_us().empty());
  EXPECT_TRUE(recovery.mttr_us().empty());
  EXPECT_EQ(recovery.degraded_time(), SimTime::zero());
  EXPECT_EQ(recovery.availability(), 1.0);
  EXPECT_EQ(inst.net->optical().delivered(), 0);
  EXPECT_EQ(inst.net->optical().total_drops(), 0);
  EXPECT_EQ(inst.net->optical().reconfig_stalls(), 0);
  recovery.start();
  inst.run_for(20_ms);
  EXPECT_EQ(recovery.recoveries(), 0);
}

}  // namespace
}  // namespace oo
