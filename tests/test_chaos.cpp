// Chaos tooling: FaultPlan JSON round-trip over every FaultKind, loud
// rejection of unknown keys/kinds, fuzz-plan determinism, ddmin shrinking
// (50-event plan -> <=3-event reproducer), and the invariant monitor —
// clean runs stay clean, planted bugs are caught, the remediation ladders'
// legality table holds, past-scheduled events are detected, and an
// attached monitor never perturbs simulation results.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/fuzz.h"
#include "chaos/invariants.h"
#include "chaos/shrink.h"
#include "common/json.h"
#include "core/controller.h"
#include "core/network.h"
#include "routing/to_routing.h"
#include "runner/experiments.h"
#include "runner/runner.h"
#include "services/fault_plan.h"
#include "services/health_scanner.h"
#include "services/sync_watchdog.h"

namespace oo::chaos {
namespace {

using namespace oo::literals;
using services::FaultEvent;
using services::FaultKind;

optics::Schedule small_schedule() {
  optics::Schedule s(4, 1, 3, 100_us);
  s.add_circuit({0, 0, 1, 0, 0});
  s.add_circuit({2, 0, 3, 0, 0});
  s.add_circuit({0, 0, 2, 0, 1});
  s.add_circuit({1, 0, 3, 0, 1});
  s.add_circuit({0, 0, 3, 0, 2});
  s.add_circuit({1, 0, 2, 0, 2});
  return s;
}

std::unique_ptr<core::Network> small_net(std::uint64_t seed = 7) {
  core::NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.seed = seed;
  return std::make_unique<core::Network>(cfg, small_schedule(),
                                        optics::ocs_emulated());
}

// --- FaultPlan JSON round-trip ---------------------------------------------

TEST(ChaosPlanJson, RoundTripsEveryKind) {
  // One hand-built event per kind with every relevant field populated at a
  // whole-microsecond / exactly-representable value.
  std::vector<FaultEvent> evs;
  for (int k = 0; k < services::kNumFaultKinds; ++k) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(k);
    e.at = SimTime::micros(10 + k);
    e.node = k % 4;
    e.port = 0;
    e.duration = SimTime::micros(50);
    e.period = SimTime::micros(20);
    e.cycles = 3;
    e.jitter = 0.25;
    e.ber = 1.0 / 64.0;
    e.ppm = 75.0;
    e.extra = SimTime::micros(5);
    // Kinds with validated value bands need in-band (still dyadic /
    // whole-unit) values: a ber_ramp start below its target, a telemetry
    // skew inside the +-(50k..500k) ppm band.
    if (e.kind == FaultKind::BerRamp) e.jitter = 1.0 / 1024.0;
    if (e.kind == FaultKind::TelemetrySkew) e.ppm = 100000.0;
    evs.push_back(e);
  }
  const json::Value j = services::fault_events_to_json(evs);
  const std::vector<FaultEvent> back = services::parse_fault_events(j);
  ASSERT_EQ(back.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(back[i].kind, evs[i].kind) << "kind index " << i;
    EXPECT_EQ(back[i].at, evs[i].at);
    EXPECT_EQ(back[i].node, evs[i].node);
  }
}

TEST(ChaosPlanJson, FuzzedPlansRoundTripExactly) {
  // Property: any fuzzer output survives to_json -> dump -> parse intact
  // (the fuzzer quantizes times to whole microseconds and probabilities to
  // dyadic fractions precisely so this equality is exact).
  FuzzSpec spec;
  spec.events = 20;
  spec.replicas = 3;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<FaultEvent> plan = fuzz_plan(seed, spec);
    const std::string dumped = services::fault_events_to_json(plan).dump();
    const std::vector<FaultEvent> back =
        services::parse_fault_events(json::parse(dumped));
    EXPECT_EQ(back, plan) << "seed " << seed;
  }
}

TEST(ChaosPlanJson, UnknownKeyRejectedLoudly) {
  const char* doc = R"({"events":[{"kind":"port_fail","durtion_us":50}]})";
  try {
    services::parse_fault_events(json::parse(doc));
    FAIL() << "typoed key must throw";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("durtion_us"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duration_us"), std::string::npos)
        << "error must list the valid vocabulary: " << msg;
  }
}

TEST(ChaosPlanJson, UnknownKindListsAllValidNames) {
  try {
    services::fault_kind_from_name("port_fial");
    FAIL() << "unknown kind must throw";
  } catch (const std::exception& e) {
    const std::string msg = e.what();
    for (int k = 0; k < services::kNumFaultKinds; ++k) {
      const char* name =
          services::fault_kind_name(static_cast<FaultKind>(k));
      EXPECT_NE(msg.find(name), std::string::npos)
          << "error should list \"" << name << "\": " << msg;
    }
  }
}

// --- Fuzzer ----------------------------------------------------------------

TEST(ChaosFuzz, DeterministicAndStructurallyValid) {
  FuzzSpec spec;
  spec.events = 16;
  spec.num_tors = 4;
  spec.replicas = 3;
  const auto a = fuzz_plan(42, spec);
  const auto b = fuzz_plan(42, spec);
  EXPECT_EQ(a, b) << "same (seed, spec) must give identical plans";
  EXPECT_NE(a, fuzz_plan(43, spec));
  for (const FaultEvent& e : a) {
    EXPECT_GE(e.at, SimTime::zero());
    EXPECT_LT(e.at, spec.horizon);
    if (e.node != kInvalidNode) {
      EXPECT_LT(e.node, spec.num_tors);
    }
    EXPECT_EQ(e.at.ns() % 1000, 0) << "times must be whole microseconds";
  }
}

TEST(ChaosFuzz, CoversEveryKindAcrossSeeds) {
  FuzzSpec spec;
  spec.events = 16;
  spec.replicas = 3;  // unlock the quorum fault kinds
  std::set<FaultKind> seen;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    for (const FaultEvent& e : fuzz_plan(seed, spec)) seen.insert(e.kind);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), services::kNumFaultKinds)
      << "60 seeds x 16 events should reach all 19 fault kinds";
}

TEST(ChaosFuzz, IntensityScalesEventCount) {
  FuzzSpec spec;
  spec.events = 12;
  spec.intensity = 2.0;
  EXPECT_EQ(fuzz_plan(5, spec).size(), 24U);
  spec.intensity = 0.25;
  EXPECT_EQ(fuzz_plan(5, spec).size(), 3U);
}

// --- Shrinker --------------------------------------------------------------

TEST(ChaosShrink, FiftyEventPlanShrinksToPlantedPair) {
  // 50-event plan; the "bug" fires iff a ClockStep AND a PortFail on node 2
  // are both present — everything else is noise the shrinker must discard.
  FuzzSpec spec;
  spec.events = 50;
  std::vector<FaultEvent> plan = fuzz_plan(9, spec);
  ASSERT_GE(plan.size(), 50U);
  FaultEvent step;
  step.kind = FaultKind::ClockStep;
  step.at = SimTime::micros(123);
  step.node = 1;
  step.extra = SimTime::micros(7);
  FaultEvent fail;
  fail.kind = FaultKind::PortFail;
  fail.at = SimTime::micros(456);
  fail.node = 2;
  fail.port = 0;
  plan.insert(plan.begin() + 17, step);
  plan.insert(plan.begin() + 31, fail);

  const auto still_fails = [](const std::vector<FaultEvent>& evs) {
    bool has_step = false, has_fail = false;
    for (const FaultEvent& e : evs) {
      if (e.kind == FaultKind::ClockStep) has_step = true;
      if (e.kind == FaultKind::PortFail && e.node == 2) has_fail = true;
    }
    return has_step && has_fail;
  };
  ASSERT_TRUE(still_fails(plan));

  const ShrinkResult res = shrink_events(plan, still_fails);
  EXPECT_TRUE(res.reproduced);
  EXPECT_LE(res.minimal.size(), 3U)
      << "52-event plan must shrink to the planted pair";
  EXPECT_TRUE(still_fails(res.minimal));
  // Field shrinking should also have zeroed the load-free scalars.
  for (const FaultEvent& e : res.minimal) {
    EXPECT_EQ(e.at, SimTime::zero());
    EXPECT_EQ(e.extra, SimTime::zero());
  }
  EXPECT_GT(res.probes, 0);
}

TEST(ChaosShrink, NonFailingPlanReturnsUnreproduced) {
  FuzzSpec spec;
  const auto plan = fuzz_plan(3, spec);
  const ShrinkResult res =
      shrink_events(plan, [](const std::vector<FaultEvent>&) {
        return false;  // nothing reproduces
      });
  EXPECT_FALSE(res.reproduced);
}

// --- Invariant monitor -----------------------------------------------------

TEST(ChaosMonitor, CleanRunHasNoViolations) {
  auto net = small_net();
  core::Controller ctl(*net);
  InvariantMonitor mon(*net);
  mon.attach_controller(&ctl);
  mon.start(SimTime::micros(50));
  net->sim().run_until(SimTime::millis(1));
  mon.check_at_drain();
  EXPECT_TRUE(mon.ok()) << mon.report();
  EXPECT_EQ(net->sim().metrics().counter("chaos.violations").value(), 0);
}

TEST(ChaosMonitor, PlantedCustomCheckIsCaught) {
  auto net = small_net();
  InvariantMonitor mon(*net);
  bool tripped = false;
  mon.add_check("planted", [&tripped]() -> std::string {
    return tripped ? "deliberate failure" : "";
  });
  mon.start(SimTime::micros(50));
  net->sim().schedule_at(SimTime::micros(120),
                         [&tripped] { tripped = true; });
  net->sim().run_until(SimTime::micros(400));
  EXPECT_FALSE(mon.ok());
  EXPECT_GE(mon.total_violations(), 1);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations()[0].invariant, "planted");
  EXPECT_GE(mon.violations()[0].at, SimTime::micros(150));
  EXPECT_EQ(net->sim().metrics().counter("chaos.violations").value(),
            mon.total_violations());
}

struct LadderMove {
  const services::Ladder* ladder;
  int from;
  int to;
};

template <typename Rung>
LadderMove ladder_move(const services::Ladder& ladder, Rung from, Rung to) {
  return {&ladder, static_cast<int>(from), static_cast<int>(to)};
}

TEST(ChaosMonitor, LadderLegalityTable) {
  using W = services::SyncWatchdog::TorState;
  using S = services::HealthScanner::NodeHealth;
  auto net = small_net();
  services::SyncWatchdog watchdog(*net);
  services::HealthScanner scanner(*net);
  const services::Ladder& wd = watchdog.ladder();
  const services::Ladder& hs = scanner.ladder();
  InvariantMonitor mon(*net);
  // Every legal move of both ladders: one rung up, or back to Healthy.
  const LadderMove legal[] = {
      ladder_move(wd, W::Healthy, W::Widened),
      ladder_move(wd, W::Widened, W::Quarantined),
      ladder_move(wd, W::Widened, W::Healthy),
      ladder_move(wd, W::Quarantined, W::Healthy),
      ladder_move(hs, S::Healthy, S::Suspect),
      ladder_move(hs, S::Suspect, S::Degraded),
      ladder_move(hs, S::Degraded, S::Quarantined),
      ladder_move(hs, S::Suspect, S::Healthy),
      ladder_move(hs, S::Degraded, S::Healthy),
      ladder_move(hs, S::Quarantined, S::Healthy),
  };
  for (const auto& m : legal) {
    mon.check_ladder_transition(*m.ladder, 0, m.from, m.to);
  }
  EXPECT_TRUE(mon.ok()) << mon.report();
  // Skipping a rung in either direction is a bug, charged to its ladder.
  const LadderMove illegal[] = {
      ladder_move(hs, S::Healthy, S::Degraded),
      ladder_move(hs, S::Healthy, S::Quarantined),
      ladder_move(hs, S::Suspect, S::Quarantined),
      ladder_move(hs, S::Degraded, S::Suspect),
      ladder_move(hs, S::Quarantined, S::Suspect),
      ladder_move(wd, W::Healthy, W::Quarantined),
      ladder_move(wd, W::Quarantined, W::Widened),
  };
  for (const auto& m : illegal) {
    mon.check_ladder_transition(*m.ladder, 1, m.from, m.to);
  }
  ASSERT_EQ(mon.total_violations(), std::ssize(illegal));
  for (std::size_t i = 0; i < std::size(illegal); ++i) {
    EXPECT_EQ(mon.violations()[i].invariant,
              illegal[i].ladder == &wd ? "watchdog_ladder" : "scanner_ladder")
        << i;
  }
  EXPECT_EQ(mon.violations()[0].detail,
            "node 1: illegal transition healthy -> degraded");
  EXPECT_EQ(mon.violations()[6].detail,
            "node 1: illegal transition quarantined -> widened");
}

TEST(ChaosMonitor, PastScheduledEventDetected) {
  auto net = small_net();
  InvariantMonitor mon(*net);
  auto& sim = net->sim();
  sim.run_until(SimTime::micros(100));
  sim.schedule_at(SimTime::micros(40), [] {}, "time_traveler");
  EXPECT_FALSE(mon.ok());
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations()[0].invariant, "no_past_events");
  EXPECT_NE(mon.violations()[0].detail.find("time_traveler"),
            std::string::npos);
  EXPECT_EQ(sim.past_schedules(), 1);
}

TEST(ChaosMonitor, AttachedMonitorDoesNotPerturbResults) {
  // The monitor must be read-only: identical traffic with and without it
  // lands identically.
  const auto run = [](bool with_monitor) {
    auto net = small_net(21);
    core::Controller ctl(*net);
    EXPECT_TRUE(ctl.deploy_routing(routing::direct_to(net->schedule()),
                                   core::LookupMode::PerHop,
                                   core::MultipathMode::None));
    net->start();
    std::unique_ptr<InvariantMonitor> mon;
    if (with_monitor) {
      mon = std::make_unique<InvariantMonitor>(*net);
      mon->attach_controller(&ctl);
      mon->start(SimTime::micros(25));
    }
    for (int i = 0; i < 40; ++i) {
      net->sim().schedule_at(SimTime::micros(10 + i * 20), [&net, i] {
        core::Packet p;
        p.type = core::PacketType::Data;
        p.flow = 7;
        p.dst_host = (i + 1) % 4;
        p.size_bytes = 1500;
        p.payload = 1436;
        net->host(i % 4).send(std::move(p));
      });
    }
    net->sim().run_until(SimTime::millis(2));
    if (mon) {
      mon->check_at_drain();
      EXPECT_TRUE(mon->ok()) << mon->report();
    }
    return net->totals();
  };
  const auto base = run(false);
  const auto monitored = run(true);
  EXPECT_EQ(base.delivered, monitored.delivered);
  EXPECT_EQ(base.fabric_drops, monitored.fabric_drops);
  EXPECT_EQ(base.congestion_drops, monitored.congestion_drops);
  EXPECT_GT(base.delivered, 0);
}

// --- End-to-end through the experiment -------------------------------------

TEST(ChaosExperiment, FuzzRunsCleanAndPlantedBugShrinks) {
  auto fn = runner::find_experiment("chaos_fuzz");
  runner::RunSpec spec;
  spec.seed = 1;
  spec.params["fuzz_seed"] = static_cast<std::int64_t>(1);
  spec.params["events"] = static_cast<std::int64_t>(10);
  spec.params["tors"] = static_cast<std::int64_t>(4);
  spec.params["duration_us"] = 2000.0;
  spec.params["minimize"] = true;

  runner::RunContext clean{spec, 1};
  json::Object row = fn(clean);
  EXPECT_EQ(row.at("violations").as_int(), 0) << row.at("report").as_string();

  spec.params["plant_bug"] = true;
  // Walk seeds until the fuzzer emits both a ClockStep and a PortFail in
  // one plan (the planted-bug trigger), then demand the full
  // catch -> shrink -> reproduce loop.
  for (std::uint64_t s = 1; s <= 32; ++s) {
    spec.seed = s;
    spec.params["fuzz_seed"] = static_cast<std::int64_t>(s);
    runner::RunContext ctx{spec, 1};
    row = fn(ctx);
    if (row.at("violations").as_int() == 0) continue;
    EXPECT_NE(row.at("report").as_string().find("planted"),
              std::string::npos);
    ASSERT_TRUE(row.count("minimal_events") != 0U);
    EXPECT_LE(row.at("minimal_events").as_int(), 3);
    EXPECT_TRUE(row.at("shrink_reproduced").as_bool());
    return;
  }
  FAIL() << "no seed in 1..32 armed clock_step + port_fail together";
}

}  // namespace
}  // namespace oo::chaos
