// Sync watchdog: symptom-driven desync detection and the per-ToR
// widen -> quarantine -> re-admit ladder. The watchdog never reads true
// clock state — everything here flows from fabric timing violations,
// wrong-slice arrivals, and beacon staleness, exactly as a real controller
// would see them.
#include <gtest/gtest.h>

#include <vector>

#include "arch/arch.h"
#include "services/fault_plan.h"
#include "services/hybrid_steering.h"
#include "services/sync_watchdog.h"

namespace oo {
namespace {

using namespace oo::literals;

constexpr NodeId kDriftNode = 2;

// Hybrid rotor with short slices: a fast drift ramp crosses a full slice —
// the silent wrong-slice regime — within a couple of milliseconds.
arch::Instance clock_instance(bool hybrid, std::uint64_t seed = 7) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 5_us;
  p.seed = seed;
  return arch::make_rotornet(p, arch::RotorRouting::Direct, hybrid);
}

void steady_traffic(arch::Instance& inst) {
  inst.net->sim().schedule_every(5_us, 10_us, [net = inst.net.get()]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 500 + src;
      pkt.dst_host = (src + 3) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });
}

// Drift fast with beacons suppressed for `ramp`: the compounding error is
// invisible to the resync protocol until the window closes. The caller
// holds the returned plan for the armed events' lifetime.
std::unique_ptr<services::FaultPlan> silent_drift(arch::Instance& inst,
                                                  SimTime at, SimTime ramp) {
  auto plan = std::make_unique<services::FaultPlan>(*inst.net, /*seed=*/2024);
  plan->drift_clock(at, kDriftNode, 8000.0, ramp);
  plan->lose_beacons(at, kDriftNode, ramp);
  plan->arm();
  return plan;
}

TEST(SyncWatchdog, WalksTheLadderAndReadmits) {
  auto inst = clock_instance(/*hybrid=*/true);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
  steady_traffic(inst);
  const auto plan = silent_drift(inst, 1_ms, 4_ms);

  // Mid-ramp: detected, widened past the cap, and fenced off the calendar.
  inst.run_for(4_ms);
  EXPECT_GE(watchdog.desyncs_detected(), 1);
  EXPECT_GE(watchdog.guard_widenings(), 1);
  EXPECT_EQ(watchdog.quarantines(), 1);
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    EXPECT_EQ(
        watchdog.state(n) == services::SyncWatchdog::TorState::Quarantined,
        n == kDriftNode)
        << n;
  }
  EXPECT_TRUE(inst.net->node_quarantined(kDriftNode));
  const std::int64_t wrong_at_fence = inst.net->optical().wrong_slice();
  EXPECT_GT(wrong_at_fence, 0);  // the silent hazard happened before the fence

  // Ramp ends at 5 ms, beacons resume, the clock re-disciplines: the node
  // must be re-admitted within a bounded number of clean rounds, with its
  // guard override cleared and zero further wrong-slice launches.
  inst.run_for(4_ms);
  EXPECT_EQ(watchdog.readmissions(), 1);
  EXPECT_EQ(watchdog.state(kDriftNode),
            services::SyncWatchdog::TorState::Healthy);
  EXPECT_FALSE(inst.net->node_quarantined(kDriftNode));
  EXPECT_EQ(inst.net->node_guard_extra(kDriftNode), SimTime::zero());
  EXPECT_EQ(inst.net->optical().wrong_slice(), wrong_at_fence);
  // Healthy nodes were never touched.
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    if (n == kDriftNode) continue;
    EXPECT_EQ(watchdog.state(n), services::SyncWatchdog::TorState::Healthy)
        << n;
  }
}

TEST(SyncWatchdog, WithoutElectricalFabricLadderStopsAtWidening) {
  auto inst = clock_instance(/*hybrid=*/false);
  ASSERT_EQ(inst.net->electrical(), nullptr);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
  steady_traffic(inst);
  const auto plan = silent_drift(inst, 1_ms, 4_ms);
  inst.run_for(4_ms);
  // All the evidence in the world cannot quarantine a node when there is
  // nowhere to divert its traffic: the ladder tops out at max widening.
  EXPECT_GE(watchdog.desyncs_detected(), 1);
  EXPECT_GE(watchdog.guard_widenings(), 1);
  EXPECT_EQ(watchdog.quarantines(), 0);
  EXPECT_NE(watchdog.state(kDriftNode),
            services::SyncWatchdog::TorState::Quarantined);
  EXPECT_GT(inst.net->node_guard_extra(kDriftNode), SimTime::zero());
}

TEST(SyncWatchdog, QuarantineHookDrivesPerNodeDegradedSteering) {
  auto inst = clock_instance(/*hybrid=*/true);
  services::HybridSteering steering(*inst.net, /*elephant_bytes=*/256 << 10,
                                    /*idle_reset=*/50_ms);
  services::SyncWatchdog watchdog(*inst.net);
  std::vector<std::pair<NodeId, bool>> transitions;
  watchdog.ladder().set_steering_hook([&](NodeId n, bool q) {
    steering.set_node_degraded(n, q);
    transitions.emplace_back(n, q);
  });
  watchdog.start();
  steady_traffic(inst);
  const auto plan = silent_drift(inst, 1_ms, 4_ms);

  inst.run_for(4_ms);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0], std::make_pair(kDriftNode, true));
  EXPECT_TRUE(steering.node_degraded(kDriftNode));

  inst.run_for(4_ms);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1], std::make_pair(kDriftNode, false));
  EXPECT_FALSE(steering.node_degraded(kDriftNode));
}

TEST(SyncWatchdog, StopDropsSubscriptionsAndFreezesState) {
  auto inst = clock_instance(/*hybrid=*/true);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
  steady_traffic(inst);
  inst.run_for(500_us);
  watchdog.stop();
  EXPECT_FALSE(watchdog.running());
  const auto plan = silent_drift(inst, 1_ms, 4_ms);
  inst.run_for(5_ms);
  // A stopped watchdog reacts to nothing — no detections, no fences — even
  // though the fabric keeps reporting violations.
  EXPECT_EQ(watchdog.desyncs_detected(), 0);
  EXPECT_EQ(watchdog.quarantines(), 0);
  EXPECT_FALSE(inst.net->node_quarantined(kDriftNode));
  EXPECT_GT(inst.net->optical().wrong_slice(), 0);
}

TEST(SyncWatchdog, BeaconStalenessProbesWithBackoff) {
  auto inst = clock_instance(/*hybrid=*/true);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
  // No drift, no traffic: suppress one node's beacons long enough to cross
  // the staleness timeout (3 x 100 us resync interval).
  services::FaultPlan plan(*inst.net, /*seed=*/2024);
  plan.lose_beacons(500_us, kDriftNode, /*duration=*/2_ms);
  plan.arm();
  inst.run_for(2_ms);
  EXPECT_GE(watchdog.probes_lost(), 1);
  // Staleness alone (no corroborating symptoms) never escalates to
  // quarantine — the clock itself is still healthy.
  EXPECT_EQ(watchdog.quarantines(), 0);
  inst.run_for(2_ms);
  // Beacons resumed: the node's stale flag cleared, state back to normal.
  EXPECT_TRUE(
      inst.net->clock().within_bound(kDriftNode, inst.net->sim().now()));
}

struct LadderTimeline {
  std::int64_t desyncs, widenings, quarantines, readmissions, wrong_slice;
  double detect_us, held_us;
  std::vector<NodeId> quarantined_mid;

  bool operator==(const LadderTimeline&) const = default;
};

LadderTimeline run_ladder(std::uint64_t seed) {
  auto inst = clock_instance(/*hybrid=*/true, seed);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
  steady_traffic(inst);
  const auto plan = silent_drift(inst, 1_ms, 4_ms);
  inst.run_for(4_ms);
  LadderTimeline t;
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    if (watchdog.state(n) == services::SyncWatchdog::TorState::Quarantined) {
      t.quarantined_mid.push_back(n);
    }
  }
  inst.run_for(4_ms);
  t.desyncs = watchdog.desyncs_detected();
  t.widenings = watchdog.guard_widenings();
  t.quarantines = watchdog.quarantines();
  t.readmissions = watchdog.readmissions();
  t.wrong_slice = inst.net->optical().wrong_slice();
  t.detect_us = watchdog.time_to_detect_us().percentile(50);
  t.held_us = watchdog.quarantine_us().percentile(50);
  return t;
}

TEST(SyncWatchdog, DetectionTimelineIsSeedDeterministic) {
  const LadderTimeline a = run_ladder(7);
  const LadderTimeline b = run_ladder(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.quarantined_mid, std::vector<NodeId>{kDriftNode});
  EXPECT_GT(a.detect_us, 0.0);
  EXPECT_GT(a.held_us, 0.0);
}

}  // namespace
}  // namespace oo
