// Health scanner (services/health_scanner): clean-seed quiet + zero false
// positives, byte-identical fabric behavior with the scanner detached,
// per-kind gray-fault localization through the gray_detection experiment,
// ladder legality under the invariant monitor, and readmission after heal.
#include <gtest/gtest.h>

#include <string>

#include "arch/arch.h"
#include "chaos/invariants.h"
#include "runner/experiments.h"
#include "runner/runner.h"
#include "services/fault_plan.h"
#include "services/health_scanner.h"
#include "services/hybrid_steering.h"
#include "services/sync_watchdog.h"

namespace oo {
namespace {

using namespace oo::literals;
using services::HealthScanner;

json::Object run_row(const std::string& experiment, runner::RunSpec spec) {
  runner::RunContext ctx{spec, 1};
  return runner::find_experiment(experiment)(ctx);
}

runner::RunSpec gray_spec(const std::string& fault, std::uint64_t seed) {
  runner::RunSpec spec;
  spec.seed = seed;
  spec.params["fault"] = fault;
  spec.params["duration_ms"] = static_cast<std::int64_t>(30);
  spec.params["severity"] = 0.5;
  return spec;
}

// Every host sends 1500 B to every other host each 10 us (the
// gray_detection experiment's load).
void all_to_all_load(core::Network* net) {
  net->sim().schedule_every(5_us, 10_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      for (HostId dst = 0; dst < net->num_hosts(); ++dst) {
        if (dst == src) continue;
        core::Packet pkt;
        pkt.type = core::PacketType::Data;
        pkt.flow = 100 + src;
        pkt.dst_host = dst;
        pkt.size_bytes = 1500;
        net->host(src).send(std::move(pkt));
      }
    }
  });
}

// ---- clean seeds: the scanner must stay silent ----

TEST(HealthScanner, CleanSeedSoakNeverSuspects) {
  for (std::uint64_t seed : {1ULL, 7ULL, 11ULL, 42ULL, 2024ULL}) {
    const json::Object row = run_row("gray_detection", gray_spec("none", seed));
    EXPECT_EQ(row.at("suspects").as_int(), 0) << "seed " << seed;
    EXPECT_EQ(row.at("false_positives").as_int(), 0) << "seed " << seed;
    EXPECT_FALSE(row.at("detected").as_bool()) << "seed " << seed;
    EXPECT_TRUE(row.at("localized").as_bool()) << "seed " << seed;
    EXPECT_GT(row.at("audits").as_int(), 0) << "seed " << seed;
  }
}

// ---- detached identity: auditing must not perturb the fabric ----

struct FabricDigest {
  std::int64_t delivered = 0;
  std::int64_t drops = 0;
  std::int64_t tx = 0;
  bool operator==(const FabricDigest&) const = default;
};

FabricDigest run_clean(bool with_scanner) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 100_us;
  p.seed = 7;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  auto* net = inst.net.get();

  HealthScanner scanner(*net);
  scanner.set_controller(inst.ctl.get());
  if (with_scanner) scanner.start();

  all_to_all_load(net);
  inst.run_for(20_ms);

  EXPECT_EQ(scanner.suspects(), 0);
  FabricDigest d;
  d.delivered = net->optical().delivered();
  d.drops = net->optical().total_drops();
  for (NodeId n = 0; n < net->num_tors(); ++n) {
    d.tx += net->tor(n).uplink_tx_bytes(0);
  }
  return d;
}

TEST(HealthScanner, CleanRunByteIdenticalWithScannerDetached) {
  // The scanner adds audit events to the simulator, so event counts differ —
  // but every fabric-observable counter must be identical: on a clean run
  // the scanner only reads, never probes and never steers.
  const FabricDigest with = run_clean(true);
  const FabricDigest without = run_clean(false);
  EXPECT_GT(with.delivered, 0);
  EXPECT_EQ(with, without);
}

// ---- localization: every kind, zero false positives ----

// Every localized fault also walks the full ladder: quarantined, then
// readmitted once it heals. `probes_lost`: the targeted probes must have
// lost some (every kind at seed 11 except the silent installer).
void expect_ladder_walked(const json::Object& row, bool probes_lost) {
  EXPECT_GE(row.at("quarantines").as_int(), 1) << json::Value(row).dump();
  EXPECT_GE(row.at("readmissions").as_int(), 1) << json::Value(row).dump();
  if (probes_lost) {
    EXPECT_GE(row.at("probes_lost").as_int(), 1) << json::Value(row).dump();
  }
}

TEST(HealthScanner, LocalizesBerRamp) {
  const json::Object row =
      run_row("gray_detection", gray_spec("ber_ramp", 11));
  EXPECT_TRUE(row.at("localized").as_bool()) << json::Value(row).dump();
  EXPECT_EQ(row.at("blame_cause").as_string(), "port_degrade");
  EXPECT_EQ(row.at("blame_port").as_int(), 0);
  EXPECT_EQ(row.at("false_positives").as_int(), 0);
  expect_ladder_walked(row, /*probes_lost=*/true);
}

TEST(HealthScanner, LocalizesGrayPairToTheCircuit) {
  runner::RunSpec spec = gray_spec("gray_pair", 11);
  spec.params["peer"] = static_cast<std::int64_t>(5);
  const json::Object row = run_row("gray_detection", spec);
  EXPECT_TRUE(row.at("localized").as_bool()) << json::Value(row).dump();
  EXPECT_EQ(row.at("blame_cause").as_string(), "link_loss");
  EXPECT_EQ(row.at("blame_port").as_int(), 0);
  EXPECT_EQ(row.at("blame_peer").as_int(), 5);
  EXPECT_EQ(row.at("false_positives").as_int(), 0);
  expect_ladder_walked(row, /*probes_lost=*/true);
}

TEST(HealthScanner, LocalizesTelemetrySkew) {
  const json::Object row =
      run_row("gray_detection", gray_spec("telemetry_skew", 11));
  EXPECT_TRUE(row.at("localized").as_bool()) << json::Value(row).dump();
  EXPECT_EQ(row.at("blame_cause").as_string(), "telemetry_skew");
  EXPECT_EQ(row.at("false_positives").as_int(), 0);
  expect_ladder_walked(row, /*probes_lost=*/true);
}

TEST(HealthScanner, LocalizesSilentInstall) {
  const json::Object row =
      run_row("gray_detection", gray_spec("silent_install", 11));
  EXPECT_TRUE(row.at("localized").as_bool()) << json::Value(row).dump();
  EXPECT_EQ(row.at("blame_cause").as_string(), "silent_install");
  EXPECT_EQ(row.at("false_positives").as_int(), 0);
  expect_ladder_walked(row, /*probes_lost=*/false);
}

// ---- ladder legality + readmission, on a heal-at-window-end fault ----

TEST(HealthScanner, LadderIsLegalAndReadmitsAfterHeal) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 100_us;
  p.seed = 7;
  // Quarantine diverts traffic, so the full ladder needs the hybrid fabric
  // (on optical-only fabrics the ladder tops out at Degraded by design).
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct,
                                  /*hybrid=*/true);
  auto* net = inst.net.get();
  auto steering =
      std::make_shared<services::HybridSteering>(*net, 256 << 10, 50_ms);

  HealthScanner scanner(*net);
  scanner.set_controller(inst.ctl.get());
  scanner.ladder().set_steering_hook([steering](NodeId n, bool degraded) {
    steering->set_node_degraded(n, degraded);
  });
  chaos::InvariantMonitor monitor(*net);
  monitor.attach_controller(inst.ctl.get());
  monitor.attach_ladder(&scanner.ladder());
  scanner.start();

  all_to_all_load(net);

  // A dirty pair that heals when its window closes at 10 ms: the ladder must
  // climb rung by rung, then clean audits must walk the node back to Healthy.
  services::FaultPlan plan(*net, 3);
  plan.gray_pair(2_ms, /*node=*/2, /*port=*/0, /*peer=*/5, /*prob=*/0.6,
                 /*duration=*/8_ms);
  plan.arm();
  inst.run_for(30_ms);

  EXPECT_GE(scanner.quarantines(), 1);
  EXPECT_GE(scanner.readmissions(), 1);
  EXPECT_EQ(scanner.state(2), HealthScanner::NodeHealth::Healthy);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

// ---- two ladders, one node: the fence is held per ladder ----

// The sync watchdog fences node 2 for its clock drift and the scanner
// fences it for its gray circuit toward node 5. The quarantine fence and
// the elephant diversion must hold until both ladders have readmitted the
// node, not lift at the first readmission.
TEST(HealthScanner, FenceHeldUntilBothLaddersReadmit) {
  constexpr NodeId kNode = 2;
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 20_us;
  p.seed = 7;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct,
                                  /*hybrid=*/true);
  auto* net = inst.net.get();
  services::HybridSteering steering(*net, 256 << 10, 50_ms);
  services::SyncWatchdog watchdog(*net);
  HealthScanner scanner(*net);
  scanner.set_controller(inst.ctl.get());
  for (services::Ladder* ladder : {&watchdog.ladder(), &scanner.ladder()}) {
    ladder->set_steering_hook([&steering](NodeId n, bool degraded) {
      steering.set_node_degraded(n, degraded);
    });
  }
  watchdog.start();
  scanner.start();
  all_to_all_load(net);

  services::FaultPlan plan(*net, 2024);
  plan.drift_clock(1_ms, kNode, 8000.0, 4_ms);
  plan.lose_beacons(1_ms, kNode, 4_ms);
  plan.gray_pair(1_ms, kNode, /*port=*/0, /*peer=*/5, /*prob=*/0.6, 6_ms);
  plan.arm();

  // Sampled every microsecond: fenced and diverted exactly while some
  // ladder holds the node there.
  int both_fenced_us = 0, one_fenced_after_both_us = 0;
  int fence_mismatch_us = 0, divert_mismatch_us = 0;
  net->sim().schedule_every(1_us, 1_us, [&]() {
    const bool wd = watchdog.ladder().fenced(kNode);
    const bool hs = scanner.ladder().fenced(kNode);
    if (wd && hs) {
      ++both_fenced_us;
    } else if (both_fenced_us > 0 && (wd || hs)) {
      ++one_fenced_after_both_us;
    }
    if (net->node_quarantined(kNode) != (wd || hs)) ++fence_mismatch_us;
    const bool divert = watchdog.ladder().rung(kNode) >= 2 ||
                        scanner.ladder().rung(kNode) >= 2;
    if (steering.node_degraded(kNode) != divert) ++divert_mismatch_us;
  });
  inst.run_for(20_ms);

  // The run reaches the double fence and outlives one readmission.
  EXPECT_GT(both_fenced_us, 0);
  EXPECT_GT(one_fenced_after_both_us, 0);
  EXPECT_EQ(fence_mismatch_us, 0);
  EXPECT_EQ(divert_mismatch_us, 0);
  // Both ladders readmit the node, and then nothing holds it.
  EXPECT_EQ(watchdog.ladder().rung(kNode), 0);
  EXPECT_EQ(scanner.ladder().rung(kNode), 0);
  EXPECT_FALSE(net->node_quarantined(kNode));
  EXPECT_FALSE(steering.node_degraded(kNode));
}

}  // namespace
}  // namespace oo
