// Deterministic fault-injection engine + event-driven failure detection:
// seeded replay determinism, idle-port LOS detection, BER corruption
// drops, control-plane outage backoff, reconfiguration stalls, and the
// JSON plan loader.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "services/fault_plan.h"

namespace oo {
namespace {

using namespace oo::literals;

arch::Instance rotor_instance(std::uint64_t seed = 1) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  p.seed = seed;
  return arch::make_rotornet(p, arch::RotorRouting::Direct);
}

services::FailureRecovery::RerouteFn direct_reroute() {
  return [](const optics::Schedule& s, core::PathSink sink) {
    return routing::direct_to(s, sink);
  };
}

// Drive steady cross-ToR mice so fault classes that need traffic (BER,
// dark-port drops) have packets to act on.
void steady_traffic(arch::Instance& inst, int* delivered) {
  for (HostId h = 0; h < inst.net->num_hosts(); ++h) {
    inst.net->host(h).bind_default(
        [delivered](core::Packet&&) { ++*delivered; });
  }
  inst.net->sim().schedule_every(50_us, 100_us, [net = inst.net.get()]() {
    for (HostId src : {HostId{0}, HostId{1}, HostId{2}}) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 100 + src;
      pkt.dst_host = (src + 4) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });
}

struct ReplayResult {
  std::int64_t delivered, drops_failed, drops_corrupt, total_drops;
  int recoveries, retries;
  std::int64_t port_downs, port_ups;
  double detect_p50, mttr_p50, mttr_max, availability;

  bool operator==(const ReplayResult&) const = default;
};

ReplayResult run_chaos_replay() {
  auto inst = rotor_instance(/*seed=*/7);
  services::FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute(),
                                     /*scrub=*/500_us);
  recovery.start();
  int delivered = 0;
  steady_traffic(inst, &delivered);

  services::FaultPlan plan(*inst.net, /*seed=*/99, inst.ctl.get());
  plan.flap_port(5_ms, 0, 0, /*down=*/2_ms, /*period=*/6_ms, /*cycles=*/3,
                 /*jitter=*/0.25);
  plan.set_ber(1_ms, 1, 0, 2e-6);
  plan.fail_control(11_ms, 2_ms);
  plan.arm();

  inst.run_for(40_ms);

  const auto& fab = inst.net->optical();
  ReplayResult r;
  r.delivered = fab.delivered();
  r.drops_failed = fab.drops_failed();
  r.drops_corrupt = fab.drops_corrupt();
  r.total_drops = fab.total_drops();
  r.recoveries = recovery.recoveries();
  r.retries = recovery.retries();
  r.port_downs = recovery.port_downs();
  r.port_ups = recovery.port_ups();
  r.detect_p50 = recovery.detect_latency_us().percentile(50);
  r.mttr_p50 = recovery.mttr_us().percentile(50);
  r.mttr_max = recovery.mttr_us().max();
  r.availability = recovery.availability();
  return r;
}

TEST(FaultPlan, SeededReplayIsBitIdentical) {
  const auto a = run_chaos_replay();
  const auto b = run_chaos_replay();
  // Same seeds, same plan: identical drop counters and identical recovery
  // timestamps (the MTTR/detection samplers are derived from them).
  EXPECT_EQ(a, b);
  // And the scenario actually exercised the fault classes.
  EXPECT_GE(a.port_downs, 3);
  EXPECT_GE(a.port_ups, 3);
  EXPECT_GT(a.recoveries, 0);
  EXPECT_GT(a.drops_corrupt, 0);
  EXPECT_LT(a.availability, 1.0);
}

TEST(FaultPlan, IdlePortFailureDetectedByLosWithoutTraffic) {
  auto inst = rotor_instance();
  services::FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute(),
                                     /*scrub=*/500_us);
  recovery.start();

  services::FaultPlan plan(*inst.net, 1);
  plan.fail_port(5_ms, 0, 0).repair_port(12_ms, 0, 0);
  plan.arm();

  // Zero traffic: the seed's drop-count poller could never see this.
  inst.run_for(8_ms);
  EXPECT_EQ(recovery.recoveries(), 1);
  EXPECT_EQ(recovery.port_downs(), 1);
  EXPECT_EQ(inst.net->optical().total_drops(), 0);
  // Detection latency is exactly the transceiver's LOS debounce.
  EXPECT_DOUBLE_EQ(
      recovery.detect_latency_us().percentile(50),
      inst.net->optical().profile().los_detect_latency.us());
  const auto& pruned = inst.net->schedule();
  for (SliceId s = 0; s < pruned.period(); ++s) {
    EXPECT_FALSE(pruned.peer(0, 0, s).has_value());
  }

  // Repair: circuits re-admitted automatically, MTTR recorded.
  inst.run_for(8_ms);
  EXPECT_EQ(recovery.port_ups(), 1);
  EXPECT_EQ(recovery.recoveries(), 2);
  EXPECT_EQ(recovery.mttr_us().count(), 1u);
  bool readmitted = false;
  const auto& healed = inst.net->schedule();
  for (SliceId s = 0; s < healed.period(); ++s) {
    readmitted |= healed.peer(0, 0, s).has_value();
  }
  EXPECT_TRUE(readmitted);
  EXPECT_LT(recovery.availability(), 1.0);
  EXPECT_GT(recovery.availability(), 0.0);

  // The registry publishes the recovery's transition counters and every
  // fabric drop class.
  const std::string csv = inst.net->sim().metrics().csv();
  for (const char* cell :
       {"recovery.port_downs,1", "recovery.port_ups,1",
        "recovery.recoveries,2", "fabric.delivered,",
        "fabric.drops{class=failed},", "fabric.drops{class=corrupt},",
        "fabric.drops{class=no_circuit},", "fabric.drops{class=guard},",
        "fabric.drops{class=boundary},", "fabric.drops{class=gray},",
        "fabric.reconfig_stalls,"}) {
    EXPECT_NE(csv.find(cell), std::string::npos) << cell;
  }
}

TEST(FaultPlan, BerCorruptionDropsAreCountedSeparately) {
  auto inst = rotor_instance();
  int delivered = 0;
  steady_traffic(inst, &delivered);
  services::FaultPlan plan(*inst.net, 1);
  plan.set_ber(1_ms, 0, 0, 1e-4).set_ber(1_ms, 0, 1, 1e-4);
  plan.arm();
  inst.run_for(30_ms);
  const auto& fab = inst.net->optical();
  EXPECT_GT(fab.drops_corrupt(), 0);
  EXPECT_EQ(fab.drops_failed(), 0);
  EXPECT_EQ(fab.total_drops(),
            fab.drops_no_circuit() + fab.drops_guard() +
                fab.drops_boundary() + fab.drops_failed() +
                fab.drops_corrupt());
  // The registry's per-class cells add up to the same total.
  const auto& m = inst.net->sim().metrics();
  std::int64_t cells = 0;
  for (const char* c :
       {"no_circuit", "guard", "boundary", "failed", "corrupt", "gray"}) {
    cells += m.counter_value("fabric.drops", {{"class", c}});
  }
  EXPECT_EQ(cells, fab.total_drops());
}

TEST(FaultPlan, ControlPlaneOutageRetriedWithBackoff) {
  auto inst = rotor_instance();
  services::FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute(),
                                     /*scrub=*/SimTime::zero());
  recovery.start();

  services::FaultPlan plan(*inst.net, 1, inst.ctl.get());
  plan.fail_control(4_ms, 6_ms);
  plan.fail_port(5_ms, 0, 0);
  plan.arm();

  inst.run_for(8_ms);
  // Outage window: detection happened, deploys rejected, retries armed.
  EXPECT_EQ(recovery.port_downs(), 1);
  EXPECT_EQ(recovery.recoveries(), 0);
  EXPECT_GT(recovery.retries(), 0);
  EXPECT_GT(inst.ctl->deploys_rejected(), 0);
  EXPECT_NE(recovery.last_error().find("control plane"), std::string::npos);

  inst.run_for(8_ms);
  // Control plane back at 10 ms: the capped-backoff retry lands.
  EXPECT_EQ(recovery.recoveries(), 1);
  // MTTR spans the whole controller outage (failure at 5 ms, recovery only
  // after 10 ms).
  ASSERT_EQ(recovery.mttr_us().count(), 1u);
  EXPECT_GT(recovery.mttr_us().max(), 5000.0);
}

TEST(FaultPlan, ReconfigStallExtendsRetargetingWindow) {
  auto inst = rotor_instance();
  inst.run_for(1_ms);
  // Kick off a 1 ms retargeting to the same circuit set, then stall it.
  auto circuits = inst.net->schedule().circuits();
  const SliceId period = inst.net->schedule().period();
  ASSERT_TRUE(inst.ctl->deploy_topo(circuits, period, 1_ms));
  services::FaultPlan plan(*inst.net, 1);
  plan.stall_reconfig(SimTime::micros(1200), 500_us);
  plan.arm();

  inst.run_for(1100_us);  // t = 2.1 ms: original deadline (2.0 ms) passed...
  EXPECT_TRUE(inst.net->optical().reconfiguring());  // ...but stalled
  inst.run_for(500_us);  // t = 2.6 ms > stalled deadline 2.5 ms
  EXPECT_FALSE(inst.net->optical().reconfiguring());
  EXPECT_EQ(inst.net->optical().reconfig_stalls(), 1);
}

TEST(FaultPlan, LoadsPlansFromJson) {
  auto inst = rotor_instance();
  services::FaultPlan plan(*inst.net, 1, inst.ctl.get());
  plan.load_json(R"({"events": [
    {"kind": "port_fail", "at_us": 1000, "node": 0, "port": 1},
    {"kind": "link_flap", "at_us": 2000, "node": 1, "port": 0,
     "down_us": 100, "period_us": 400, "cycles": 2, "jitter": 0.1},
    {"kind": "ber", "at_us": 500, "node": 2, "port": 0, "ber": 1e-9},
    {"kind": "control_fail", "at_us": 3000, "duration_us": 200}
  ]})");
  EXPECT_EQ(plan.size(), 4u);
  plan.arm();
  inst.run_for(5_ms);
  EXPECT_TRUE(inst.net->optical().port_failed(0, 1));
  EXPECT_FALSE(inst.net->optical().port_failed(1, 0));  // flap ended
  EXPECT_DOUBLE_EQ(inst.net->optical().port_ber(2, 0), 1e-9);
  EXPECT_FALSE(inst.ctl->deploy_fail());  // outage window closed
  EXPECT_EQ(plan.injected(services::FaultKind::PortFail), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::LinkFlap), 2);
  EXPECT_EQ(plan.injected_total(), 5);
  EXPECT_NE(plan.summary().find("link_flap=2"), std::string::npos);
  EXPECT_THROW(plan.load_json(R"({"events": [{"kind": "meteor"}]})"),
               std::runtime_error);
}

TEST(FaultKindNames, RoundTripEveryKind) {
  // Every enumerator must serialize to a unique name and parse back —
  // the JSON plan loader depends on it (kNumFaultKinds static_assert in
  // fault_plan.cpp catches enum growth at compile time).
  for (int k = 0; k < services::kNumFaultKinds; ++k) {
    const auto kind = static_cast<services::FaultKind>(k);
    const std::string name = services::fault_kind_name(kind);
    EXPECT_NE(name, "?") << k;
    EXPECT_EQ(services::fault_kind_from_name(name), kind) << name;
  }
  EXPECT_THROW(services::fault_kind_from_name("meteor"), std::runtime_error);
  // The four clock-fault kinds are spelled as documented.
  EXPECT_EQ(services::fault_kind_from_name("clock_drift"),
            services::FaultKind::ClockDriftRamp);
  EXPECT_EQ(services::fault_kind_from_name("clock_step"),
            services::FaultKind::ClockStep);
  EXPECT_EQ(services::fault_kind_from_name("beacon_loss"),
            services::FaultKind::SyncBeaconLoss);
  EXPECT_EQ(services::fault_kind_from_name("sync_outage"),
            services::FaultKind::SyncOutage);
}

TEST(FaultPlan, LoadsClockFaultsFromJson) {
  auto inst = rotor_instance();
  auto& clock = inst.net->clock();
  const SimTime residual2 = clock.offset(2);
  const SimTime residual3 = clock.offset(3);
  services::FaultPlan plan(*inst.net, 1, inst.ctl.get());
  plan.load_json(R"({"events": [
    {"kind": "clock_drift", "at_us": 1000, "node": 2, "ppm": 8000,
     "duration_us": 2000},
    {"kind": "clock_step", "at_us": 1000, "node": 3, "extra_us": 5},
    {"kind": "beacon_loss", "at_us": 1000, "node": 2, "duration_us": 2000},
    {"kind": "sync_outage", "at_us": 4000, "duration_us": 500}
  ]})");
  EXPECT_EQ(plan.size(), 4u);
  plan.arm();

  inst.run_for(2_ms);  // t = 2 ms: ramp active, beacons suppressed
  EXPECT_DOUBLE_EQ(clock.drift_ppm(2), 8000.0);
  EXPECT_TRUE(clock.beacons_blocked(2, inst.net->sim().now()));
  // 1 ms of 8000 ppm = 8 us of accumulated error.
  EXPECT_EQ(clock.offset(2, 2_ms), residual2 + 8_us);
  // The step landed instantly; the next beacon already re-disciplined it.
  EXPECT_EQ(clock.offset(3, inst.net->sim().now()), residual3);

  inst.run_for(1500_us);  // t = 3.5 ms: ramp expired, beacons resumed
  EXPECT_DOUBLE_EQ(clock.drift_ppm(2), 0.0);
  EXPECT_FALSE(clock.beacons_blocked(2, inst.net->sim().now()));
  EXPECT_EQ(clock.offset(2, inst.net->sim().now()), residual2);

  inst.run_for(700_us);  // t = 4.2 ms: inside the fabric-wide outage
  EXPECT_TRUE(clock.outage(inst.net->sim().now()));
  EXPECT_TRUE(clock.beacons_blocked(0, inst.net->sim().now()));
  inst.run_for(400_us);  // t = 4.6 ms: outage over
  EXPECT_FALSE(clock.outage(inst.net->sim().now()));

  EXPECT_EQ(plan.injected(services::FaultKind::ClockDriftRamp), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::ClockStep), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::SyncBeaconLoss), 1);
  EXPECT_EQ(plan.injected(services::FaultKind::SyncOutage), 1);
  EXPECT_NE(plan.summary().find("clock_drift=1"), std::string::npos);
}

TEST(FailureRecovery, StopSilencesDetectionAndScrub) {
  auto inst = rotor_instance();
  services::FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute(),
                                     /*scrub=*/500_us);
  recovery.start();
  inst.run_for(2_ms);
  recovery.stop();
  EXPECT_FALSE(recovery.running());
  inst.net->optical().set_port_failed(0, 0, true);
  inst.run_for(10_ms);
  // A drained-down service reacts to nothing: no recoveries, no counters.
  EXPECT_EQ(recovery.recoveries(), 0);
  EXPECT_EQ(recovery.port_downs(), 0);
}

// Every entry of a ToR's table, weights bit for bit, as one string.
std::string table_dump(const core::TimeFlowTable& t) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& e : t.entries()) {
    out << e.match.arr_slice << ',' << e.match.src << ',' << e.match.dst
        << " p" << e.priority << " e" << e.epoch << ':';
    for (const auto& a : e.actions) {
      out << ' ' << a.weight;
      for (const auto& h : a.hops) out << '/' << h.egress << '@' << h.dep_slice;
    }
    out << '\n';
  }
  return out.str();
}

TEST(FailureRecovery, EmptyRerouteRetriesWithoutDeploying) {
  auto inst = rotor_instance();
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule&, core::PathSink) { return true; },
      /*scrub=*/SimTime::zero());
  recovery.start();
  const auto& prepares =
      inst.net->sim().metrics().counter("controller.txn_prepares");
  const std::int64_t prepared = prepares.value();
  const std::uint64_t epoch = inst.ctl->committed_epoch();
  std::vector<std::string> tables;
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    tables.push_back(table_dump(inst.net->tor(n).tft()));
  }

  EXPECT_FALSE(recovery.recover_now());
  EXPECT_EQ(prepares.value(), prepared);
  EXPECT_EQ(inst.ctl->committed_epoch(), epoch);
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    EXPECT_EQ(table_dump(inst.net->tor(n).tft()),
              tables[static_cast<std::size_t>(n)])
        << "ToR " << n;
  }
  EXPECT_EQ(recovery.last_error(), "reroute produced no paths");
  EXPECT_EQ(recovery.retries(), 1);
}

// An install NACK on the ideal southbound aborts the deploy inside
// recover_now(): the failure reaches the deploy callback and then the
// return value, and the attempt still arms one retry and doubles the
// backoff once.
TEST(FailureRecovery, InlineAbortArmsOneRetry) {
  auto inst = rotor_instance();
  services::FailureRecovery recovery(*inst.net, *inst.ctl, direct_reroute(),
                                     /*scrub=*/SimTime::zero());
  recovery.start();
  inst.ctl->set_install_fail(3, true);
  EXPECT_FALSE(recovery.recover_now());
  EXPECT_EQ(recovery.retries(), 1);
  // The retry at 100 us fails too and arms the next 200 us later.
  inst.run_for(150_us);
  EXPECT_EQ(recovery.retries(), 2);
  EXPECT_EQ(recovery.recoveries(), 0);
  inst.ctl->set_install_fail(3, false);
  inst.run_for(200_us);  // t = 350 us: the retry at 300 us committed
  EXPECT_EQ(recovery.recoveries(), 1);
  inst.run_for(5_ms);
  EXPECT_EQ(recovery.recoveries(), 1);
  EXPECT_EQ(recovery.retries(), 2);
}

}  // namespace
}  // namespace oo
