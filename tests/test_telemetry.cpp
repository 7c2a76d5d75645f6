// Telemetry subsystem: flight-recorder ring semantics (overwrite-oldest,
// no post-construction allocation), the metrics registry, Chrome
// trace_event export schema, trace determinism under identical seeds, the
// post-mortem text dump, and the per-tag event profiler.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/json.h"
#include "core/quorum.h"
#include "eventsim/simulator.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "services/fault_plan.h"
#include "services/health_scanner.h"
#include "services/sync_watchdog.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/trace_export.h"

namespace oo {
namespace {

using namespace oo::literals;

TEST(FlightRecorder, OverwritesOldestAndNeverReallocates) {
  telemetry::FlightRecorder rec(8);
  const telemetry::TraceEvent* storage = rec.storage();
  for (std::int64_t i = 0; i < 20; ++i) {
    rec.packet_enqueue(SimTime::nanos(i), /*node=*/0, /*port=*/0,
                       /*pkt=*/i, /*bytes=*/100);
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_recorded(), 20);
  // The ring is sized once at construction; filling and wrapping it must
  // not move the storage.
  EXPECT_EQ(rec.storage(), storage);

  // Retained window is the last 8 events, oldest first.
  std::vector<std::int64_t> ids;
  rec.for_each([&](const telemetry::TraceEvent& ev) { ids.push_back(ev.a); });
  EXPECT_EQ(ids, (std::vector<std::int64_t>{12, 13, 14, 15, 16, 17, 18, 19}));

  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  EXPECT_EQ(snap.front().a, 12);
  EXPECT_EQ(snap.back().a, 19);

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0);
  EXPECT_EQ(rec.storage(), storage);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  telemetry::MetricsRegistry reg;
  auto& c = reg.counter("fabric.drops", {{"class", "guard"}});
  c.inc();
  c.inc(4);
  // Same name + labels resolves to the same cell.
  EXPECT_EQ(&reg.counter("fabric.drops", {{"class", "guard"}}), &c);
  EXPECT_EQ(reg.counter_value("fabric.drops", {{"class", "guard"}}), 5);
  // A different label set is a different cell.
  reg.counter("fabric.drops", {{"class", "boundary"}}).inc();
  EXPECT_EQ(reg.counter_value("fabric.drops", {{"class", "boundary"}}), 1);
  // Absent metrics read as zero instead of materializing.
  EXPECT_EQ(reg.counter_value("nope"), 0);
  EXPECT_EQ(reg.gauge_value("nope"), 0.0);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);

  reg.gauge("queue.depth").set(42.5);
  EXPECT_EQ(reg.gauge_value("queue.depth"), 42.5);

  auto& h = reg.histogram("fct_us");
  h.add(1.0);
  h.add(3.0);
  EXPECT_NE(reg.find_histogram("fct_us"), nullptr);

  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("metric,value\n"), std::string::npos);
  EXPECT_NE(csv.find("fabric.drops{class=guard},5\n"), std::string::npos);
  EXPECT_NE(csv.find("queue.depth,42.5\n"), std::string::npos);
  EXPECT_NE(csv.find("fct_us.count,2\n"), std::string::npos);
}

// A small chaos scenario that exercises every trace event class: rotor
// fabric (slice rotations, guard bands), steady traffic (enqueue/dequeue),
// a port flap (circuit down/up, fault inject/repair), BER corruption
// (drops), and recovery (control deploys/retries run under an outage).
arch::Instance traced_instance(telemetry::FlightRecorder* rec,
                               std::uint64_t seed = 7) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  p.seed = seed;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  if (rec != nullptr) inst.net->sim().set_recorder(rec);
  return inst;
}

void run_chaos(arch::Instance& inst) {
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
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*scrub=*/500_us);
  recovery.start();
  services::FaultPlan plan(*inst.net, /*seed=*/99, inst.ctl.get());
  plan.flap_port(5_ms, 0, 0, /*down=*/2_ms, /*period=*/6_ms, /*cycles=*/2,
                 /*jitter=*/0.25);
  plan.set_ber(1_ms, 1, 0, 2e-6);
  plan.fail_control(11_ms, 2_ms);
  plan.arm();
  inst.run_for(25_ms);
  recovery.stop();
}

TEST(ChromeTrace, SchemaAndRequiredEventKinds) {
  telemetry::FlightRecorder rec(std::size_t{1} << 16);
  auto inst = traced_instance(&rec);
  run_chaos(inst);
  ASSERT_GT(rec.size(), 0u);

  const std::string text = telemetry::chrome_trace_json(rec);
  const json::Value doc = json::parse(text);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::set<std::string> names;
  for (const auto& ev : events) {
    const std::string ph = ev.at("ph").as_string();
    ASSERT_TRUE(ev.contains("pid"));
    ASSERT_TRUE(ev.contains("tid"));
    ASSERT_TRUE(ev.contains("name"));
    if (ph != "M") {
      ASSERT_TRUE(ev.contains("ts"));
      EXPECT_TRUE(ph == "i" || ph == "X") << ph;
    }
    names.insert(ev.at("name").as_string());
  }
  // The acceptance set: drops, circuit transitions, and fault lifecycle
  // must all be visible on the timeline.
  // GuardOpen renders as a "guard" complete-span ("X") event covering the
  // window; everything else keeps its event_kind_name.
  for (const char* need :
       {"drop", "circuit_up", "circuit_down", "fault_inject", "fault_repair",
        "slice_rotation", "guard", "process_name"}) {
    EXPECT_TRUE(names.count(need)) << "missing trace event: " << need;
  }
}

TEST(ChromeTrace, IdenticalSeedsProduceIdenticalTraces) {
  telemetry::FlightRecorder rec_a(std::size_t{1} << 16);
  telemetry::FlightRecorder rec_b(std::size_t{1} << 16);
  {
    auto inst = traced_instance(&rec_a);
    run_chaos(inst);
  }
  {
    auto inst = traced_instance(&rec_b);
    run_chaos(inst);
  }
  ASSERT_GT(rec_a.size(), 0u);
  EXPECT_EQ(rec_a.snapshot(), rec_b.snapshot());
  EXPECT_EQ(telemetry::chrome_trace_json(rec_a),
            telemetry::chrome_trace_json(rec_b));
}

TEST(ChromeTrace, TracingDoesNotPerturbTheRun) {
  telemetry::FlightRecorder rec(std::size_t{1} << 16);
  std::int64_t traced_delivered = 0, traced_events = 0, traced_drops = 0;
  std::int64_t bare_delivered = 0, bare_events = 0, bare_drops = 0;
  {
    auto inst = traced_instance(&rec);
    run_chaos(inst);
    traced_delivered = inst.net->optical().delivered();
    traced_events = inst.net->sim().events_executed();
    traced_drops = inst.net->optical().total_drops();
  }
  {
    auto inst = traced_instance(nullptr);
    run_chaos(inst);
    bare_delivered = inst.net->optical().delivered();
    bare_events = inst.net->sim().events_executed();
    bare_drops = inst.net->optical().total_drops();
  }
  EXPECT_EQ(traced_delivered, bare_delivered);
  EXPECT_EQ(traced_events, bare_events);
  EXPECT_EQ(traced_drops, bare_drops);
  EXPECT_GT(bare_drops, 0);
}

// Clock-chaos scenario: a drift ramp with suppressed beacons on a hybrid
// rotor while the sync watchdog walks the widen -> quarantine -> re-admit
// ladder. Exercises every clock-domain trace event class.
void run_clock_chaos(telemetry::FlightRecorder* rec) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 5_us;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  if (rec != nullptr) inst.net->sim().set_recorder(rec);
  services::SyncWatchdog watchdog(*inst.net);
  watchdog.start();
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
  services::FaultPlan plan(*inst.net, /*seed=*/2024);
  plan.drift_clock(1_ms, 2, 8000.0, /*duration=*/4_ms);
  plan.lose_beacons(1_ms, 2, /*duration=*/4_ms);
  plan.arm();
  inst.run_for(8_ms);
}

// Runs `scenario` twice into fresh recorders: identical seeds must give
// byte-identical Chrome traces holding every event name in `need`.
void expect_trace_replays_with(
    const std::function<void(telemetry::FlightRecorder*)>& scenario,
    std::initializer_list<const char*> need) {
  telemetry::FlightRecorder rec_a(std::size_t{1} << 16);
  telemetry::FlightRecorder rec_b(std::size_t{1} << 16);
  scenario(&rec_a);
  scenario(&rec_b);
  ASSERT_GT(rec_a.size(), 0u);
  EXPECT_EQ(rec_a.snapshot(), rec_b.snapshot());
  const std::string trace = telemetry::chrome_trace_json(rec_a);
  EXPECT_EQ(trace, telemetry::chrome_trace_json(rec_b));

  std::set<std::string> names;
  const json::Value doc = json::parse(trace);
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    names.insert(ev.at("name").as_string());
  }
  for (const char* name : need) {
    EXPECT_TRUE(names.count(name)) << "missing trace event: " << name;
  }
}

TEST(ChromeTrace, ClockChaosEventsPresentAndDeterministic) {
  // Identical seeds: identical detection timeline and quarantine set.
  expect_trace_replays_with(
      run_clock_chaos,
      {"wrong_slice", "beacon_lost", "clock_desync", "guard_widen",
       "quarantine", "readmit", "fault_inject", "fault_repair"});
}

// Leader kill on a 3-replica controller quorum: the survivors time out,
// elect a new leader, and it takes over the control plane.
void run_leader_kill(telemetry::FlightRecorder* rec) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 50_us;
  p.seed = 7;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  inst.net->sim().set_recorder(rec);
  core::SouthboundConfig sb;
  sb.latency = 20_us;
  inst.ctl->southbound().configure(sb);
  core::QuorumConfig qc;
  qc.replicas = 3;
  core::ControllerQuorum quorum(*inst.net, *inst.ctl, qc);
  quorum.start();
  services::FaultPlan plan(*inst.net, /*seed=*/2024, inst.ctl.get());
  plan.kill_leader(1_ms, /*restart_after=*/1_ms);
  plan.arm();
  inst.run_for(4_ms);
}

TEST(ChromeTrace, QuorumFailoverEventsPresentAndDeterministic) {
  expect_trace_replays_with(
      run_leader_kill, {"election_start", "leader_elected", "quorum_failover"});
}

// A dirty port pair on a hybrid rotor while the health scanner probes the
// blamed circuit and walks the node up the ladder and back after the pair
// heals. Traffic is light enough that the run fits the recorder.
void run_gray_pair(telemetry::FlightRecorder* rec) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 100_us;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  auto* net = inst.net.get();
  net->sim().set_recorder(rec);
  services::HealthScanner scanner(*net);
  scanner.set_controller(inst.ctl.get());
  scanner.start();
  net->sim().schedule_every(5_us, 25_us, [net]() {
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
  services::FaultPlan plan(*net, /*seed=*/3);
  plan.gray_pair(1_ms, /*node=*/2, /*port=*/0, /*peer=*/5, /*prob=*/0.6,
                 /*duration=*/4_ms);
  plan.arm();
  inst.run_for(10_ms);
}

TEST(ChromeTrace, HealthLadderEventsPresentAndDeterministic) {
  expect_trace_replays_with(
      run_gray_pair, {"health_suspect", "health_degrade", "health_quarantine",
                      "health_readmit", "probe_timeout"});
}

TEST(PostMortem, DumpsLastEventsWithReasons) {
  telemetry::FlightRecorder rec(16);
  rec.packet_enqueue(1_us, 3, 1, /*pkt=*/42, /*bytes=*/1500);
  rec.drop(2_us, telemetry::DropReason::Guard, 3, 1, /*pkt=*/42,
           /*bytes=*/1500);
  const std::string all = telemetry::post_mortem(rec);
  EXPECT_NE(all.find("flight recorder"), std::string::npos);
  EXPECT_NE(all.find("enqueue"), std::string::npos);
  EXPECT_NE(all.find("drop"), std::string::npos);
  EXPECT_NE(all.find("reason=guard"), std::string::npos);
  // last_n trims from the front: only the drop remains.
  const std::string last = telemetry::post_mortem(rec, 1);
  EXPECT_EQ(last.find("enqueue"), std::string::npos);
  EXPECT_NE(last.find("drop"), std::string::npos);
}

TEST(EventProfiler, BucketsByTagAndCountsEverything) {
  sim::Simulator s;
  telemetry::EventProfiler prof;
  s.set_profiler(&prof);
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::micros(i + 1), []() {}, "tick");
  }
  s.schedule_at(20_us, []() {});  // untagged
  s.run();
  EXPECT_EQ(prof.total_events(), 11);
  const auto buckets = prof.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  std::int64_t tick_events = 0, untagged_events = 0;
  for (const auto& b : buckets) {
    if (b.tag == "tick") tick_events = b.events;
    if (b.tag == "untagged") untagged_events = b.events;
  }
  EXPECT_EQ(tick_events, 10);
  EXPECT_EQ(untagged_events, 1);
  EXPECT_GE(prof.peak_queue_depth(), 10u);
  EXPECT_FALSE(prof.report().empty());

  prof.clear();
  EXPECT_EQ(prof.total_events(), 0);
  EXPECT_TRUE(prof.buckets().empty());
}

TEST(EventProfiler, EqualTagTextSharesOneBucketWhateverItsAddress) {
  // A tag's bucket is found by its pointer, but two arrays with the same
  // text still count into one bucket, and a null tag into "untagged".
  telemetry::EventProfiler prof;
  const char a[] = "link";
  const char b[] = "link";
  ASSERT_NE(static_cast<const void*>(a), static_cast<const void*>(b));
  prof.add(a, 10);
  prof.add(b, 20);
  prof.add(nullptr, 7);
  prof.add(a, 5);
  prof.add(nullptr, 1);
  auto buckets = prof.buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].tag, "link");
  EXPECT_EQ(buckets[0].events, 3);
  EXPECT_EQ(buckets[0].wall_ns, 35);
  EXPECT_EQ(buckets[1].tag, "untagged");
  EXPECT_EQ(buckets[1].events, 2);
  EXPECT_EQ(buckets[1].wall_ns, 8);
  // clear() forgets the pointers along with the buckets.
  prof.clear();
  prof.add(b, 4);
  buckets = prof.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].tag, "link");
  EXPECT_EQ(buckets[0].events, 1);
  EXPECT_EQ(buckets[0].wall_ns, 4);
}

TEST(MetricsRegistry, SimulatorCountersFlowThroughRegistry) {
  telemetry::FlightRecorder rec(std::size_t{1} << 16);
  auto inst = traced_instance(&rec);
  run_chaos(inst);
  auto& m = inst.net->sim().metrics();
  // The fabric's shim accessors and the registry cells are one counter.
  EXPECT_EQ(m.counter_value("fabric.delivered"),
            inst.net->optical().delivered());
  EXPECT_EQ(m.counter_value("fabric.drops", {{"class", "failed"}}),
            inst.net->optical().drops_failed());
  EXPECT_EQ(m.counter_value("fabric.drops", {{"class", "corrupt"}}),
            inst.net->optical().drops_corrupt());
  // Faults were injected through the plan and mirrored per kind.
  EXPECT_GT(m.counter_value("faults.injected", {{"kind", "link_flap"}}), 0);
  EXPECT_GT(m.counter_value("faults.injected", {{"kind", "ber"}}), 0);
  // The CSV dump covers the run's registered metrics.
  const std::string csv = m.csv();
  EXPECT_NE(csv.find("fabric.delivered,"), std::string::npos);
  EXPECT_NE(csv.find("recovery.port_downs,"), std::string::npos);
}

}  // namespace
}  // namespace oo
