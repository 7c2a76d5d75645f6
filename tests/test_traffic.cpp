// Streaming traffic engine + hybrid packet/fluid fidelity.
//
// Covers the contracts the subsystem advertises: FCT aggregates report the
// same percentiles as PercentileSampler; specs reject malformed inputs
// loudly; the synthesized flow stream is a pure function of the
// spec (byte-identical fingerprints across runs, worker counts, shard
// counts, cohabiting workloads, and closed vs. open loop); heavy-hitter
// tail mass matches the analytic CDF mixture; the load curve's zero
// windows are silent; and the fluid solver agrees with packet-level
// transport on Fig. 8-shaped mice/elephant mixes while doing far fewer
// simulator events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "runner/experiments.h"
#include "runner/runner.h"
#include "telemetry/flight_recorder.h"
#include "traffic/engine.h"
#include "transport/endpoint.h"
#include "transport/fluid.h"
#include "transport/udp_probe.h"
#include "workload/kv.h"
#include "workload/traces.h"

namespace oo::traffic {
namespace {

using workload::CdfPoint;
using namespace oo::literals;

constexpr std::int64_t kPacketOnly = std::numeric_limits<std::int64_t>::max();

arch::Instance make_rotor(int tors, int hosts_per_tor, int uplinks,
                          std::uint64_t seed = 7, int shards = 0) {
  arch::Params p;
  p.tors = tors;
  p.hosts_per_tor = hosts_per_tor;
  p.uplinks = uplinks;
  p.seed = seed;
  p.shards = shards;
  return runner::make_arch("rotornet-direct", p);
}

// ---------------------------------------------------------------------------
// Input validation: the engine validates its spec at construction.

TrafficSpec trace_spec(workload::TraceKind kind, double load) {
  TrafficSpec spec;
  spec.load = load;
  spec.size.base = workload::trace_cdf(kind);
  return spec;
}

TEST(FctAggregateTest, PercentilesMatchPercentileSampler) {
  FctAggregate agg;
  PercentileSampler sampler;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double fct_us = 5.0 + rng.uniform01() * 5000.0;
    agg.add(fct_us);
    sampler.add(fct_us);
    // A percentile read between adds sees every sample added so far.
    if (i % 250 == 0) {
      EXPECT_EQ(agg.percentile(50), sampler.percentile(50)) << "after " << i;
      EXPECT_EQ(agg.percentile(99), sampler.percentile(99)) << "after " << i;
    }
  }
  for (int tenths = 0; tenths <= 1000; ++tenths) {
    const double p = tenths / 10.0;
    EXPECT_EQ(agg.percentile(p), sampler.percentile(p)) << "p" << p;
  }
}

TEST(TraceValidation, ReplayRejectsBadLoad) {
  auto inst = make_rotor(4, 1, 1);
  auto& net = *inst.net;
  const auto kv = workload::TraceKind::KvStore;
  EXPECT_THROW(TrafficEngine(net, trace_spec(kv, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, trace_spec(kv, -0.3)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, trace_spec(kv, 1.5)),
               std::invalid_argument);
  EXPECT_NO_THROW(TrafficEngine(net, trace_spec(kv, 1.0)));
}

TEST(TraceValidation, OpenLoopRejectsBadArgs) {
  auto inst = make_rotor(4, 1, 1);
  auto& net = *inst.net;
  const auto open_spec = [](double load, std::int64_t mss, BitsPerSec pace) {
    TrafficSpec spec = trace_spec(workload::TraceKind::Hadoop, load);
    spec.open_loop = true;
    spec.transfer.mss = mss;
    spec.flow_pace_bps = pace;
    return spec;
  };
  EXPECT_THROW(TrafficEngine(net, open_spec(0.0, 8936, 0)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, open_spec(2.0, 8936, 0)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, open_spec(0.4, 0, 0)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, open_spec(0.4, -9000, 0)),
               std::invalid_argument);
  EXPECT_THROW(TrafficEngine(net, open_spec(0.4, 8936, -1.0)),
               std::invalid_argument);
  EXPECT_NO_THROW(TrafficEngine(net, open_spec(0.4, 8936, 10e9)));
}

// A packet's size is 32-bit: an MSS whose packets would not fit is
// rejected with the spec, and a payload or probe past it where the packet
// would be built, never wrapped.
TEST(TraceValidation, RejectsPacketsPastTheirSizeField) {
  auto inst = make_rotor(4, 1, 1);
  auto& net = *inst.net;
  TrafficSpec spec = trace_spec(workload::TraceKind::Hadoop, 0.4);
  spec.transfer.mss = net::kMaxPacketBytes - transport::kHeaderBytes + 1;
  EXPECT_THROW(TrafficEngine(net, spec), std::invalid_argument);
  spec.transfer.mss = net::kMaxPacketBytes - transport::kHeaderBytes;
  EXPECT_NO_THROW(TrafficEngine(net, spec));
  const std::int64_t too_big = net::kMaxPacketBytes + 1;
  EXPECT_THROW(transport::UdpProbe(net, 0, 1, SimTime::micros(10), too_big),
               std::invalid_argument);
  transport::FlowEndpoint ep(net, 0, 1, {}, {});
  EXPECT_THROW(ep.data(0, too_big), std::invalid_argument);
  EXPECT_EQ(ep.data(0, 8936).size_bytes, 9000);
}

TEST(TraceValidation, ValidateCdfRejectsMalformedShapes) {
  EXPECT_THROW(workload::validate_cdf({}), std::invalid_argument);
  // Bytes must be positive and strictly increasing.
  EXPECT_THROW(workload::validate_cdf({{0, 0.5}, {100, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(workload::validate_cdf({{100, 0.5}, {100, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(workload::validate_cdf({{200, 0.5}, {100, 1.0}}),
               std::invalid_argument);
  // Cumulative probability must be non-decreasing in (0, 1].
  EXPECT_THROW(workload::validate_cdf({{100, 0.8}, {200, 0.5}, {300, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(workload::validate_cdf({{100, -0.1}, {200, 1.0}}),
               std::invalid_argument);
  // The distribution must close at exactly 1.0.
  EXPECT_THROW(workload::validate_cdf({{100, 0.5}, {200, 0.9}}),
               std::invalid_argument);
  EXPECT_NO_THROW(workload::validate_cdf({{100, 0.5}, {200, 1.0}}));
  EXPECT_THROW(workload::trace_cdf_by_name("not-a-trace"),
               std::invalid_argument);
  EXPECT_NO_THROW(workload::trace_cdf_by_name("kv"));
}

// ---------------------------------------------------------------------------
// Analytic tail helpers vs. actual sampling.

TEST(TraceValidation, TailHelpersMatchSampledMass) {
  const auto& cdf = workload::trace_cdf(workload::TraceKind::Hadoop);
  Rng rng = derive_rng(99, 0, "tail-test");
  const int n = 200'000;
  const double cut = 1e5;
  std::int64_t above = 0;
  double bytes_total = 0, bytes_above = 0;
  for (int i = 0; i < n; ++i) {
    const double s = workload::sample_flow_size(cdf, rng);
    bytes_total += s;
    if (s > cut) {
      ++above;
      bytes_above += s;
    }
  }
  const double frac = static_cast<double>(above) / n;
  EXPECT_NEAR(frac, workload::cdf_fraction_above(cdf, cut), 0.005);
  const double byte_frac = bytes_above / bytes_total;
  const double analytic = workload::cdf_byte_fraction_above(cdf, cut);
  EXPECT_GT(analytic, 0.5);  // Hadoop bytes live in the tail
  EXPECT_NEAR(byte_frac, analytic, 0.1 * analytic);
}

// ---------------------------------------------------------------------------
// Spec validation and JSON round-trip.

TEST(TrafficSpecTest, JsonParsesFullShape) {
  const char* text = R"({
    "sources": 5000, "load": 0.25, "seed": 42,
    "size": {"cdf": "kv", "hh_fraction": 0.1, "hh_cdf": "hadoop"},
    "skew": {"kind": "hotspot", "hot_tors": 2, "hot_weight": 0.7},
    "burst": {"on_us": 150, "off_us": 450},
    "curve": [[0.0, 1.0], [0.5, 0.0], [1.0, 2.0]],
    "hybrid_threshold": 250000,
    "transfer": {"mss": 4000, "window": 32, "open_loop": true,
                 "pace_bps": 3e9}
  })";
  const TrafficSpec spec = spec_from_json_text(text);
  EXPECT_EQ(spec.sources, 5000);
  EXPECT_DOUBLE_EQ(spec.load, 0.25);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.size.hh_fraction, 0.1);
  EXPECT_EQ(spec.skew.kind, SkewSpec::Kind::Hotspot);
  EXPECT_EQ(spec.skew.hot_tors, 2);
  EXPECT_TRUE(spec.burst.enabled);
  EXPECT_EQ(spec.burst.on_mean, SimTime::micros(150));
  EXPECT_EQ(spec.hybrid_threshold, 250000);
  EXPECT_EQ(spec.transfer.mss, 4000);
  EXPECT_EQ(spec.transfer.window, 32);
  EXPECT_TRUE(spec.open_loop);
  EXPECT_DOUBLE_EQ(spec.flow_pace_bps, 3e9);
  ASSERT_EQ(spec.curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve_scale(spec.curve, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(curve_scale(spec.curve, 0.6), 0.0);
  EXPECT_DOUBLE_EQ(curve_scale(spec.curve, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(curve_next_change(spec.curve, 0.2), 0.5);
  EXPECT_TRUE(std::isinf(curve_next_change(spec.curve, 1.5)));
}

TEST(TrafficSpecTest, ValidationRejectsBadSpecs) {
  const auto parse = [](const char* text) {
    return spec_from_json_text(text);
  };
  EXPECT_THROW(parse(R"({"sources": 0})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"load": 0.0})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"load": 1.5})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"size": {"hh_fraction": 1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"size": {"cdf": [[100, 0.9], [50, 1.0]]}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"skew": {"kind": "banana"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"burst": {"on_us": -5}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"curve": [[1.0, 1.0], [0.5, 2.0]]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"hybrid_threshold": 0})"), std::invalid_argument);
  // Transfer config flows into the packet path unchecked otherwise.
  EXPECT_THROW(parse(R"({"transfer": {"mss": 0}})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"transfer": {"mss": -9000}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"transfer": {"window": 0}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"transfer": {"window": -4}})"),
               std::invalid_argument);
  // A pace is open-loop only, and never negative.
  EXPECT_THROW(parse(R"({"transfer": {"open_loop": true, "pace_bps": -1}})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"transfer": {"pace_bps": 1e9}})"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse(R"({"transfer": {"open_loop": true}})"));
  // Heap entries index sources with 32 bits.
  EXPECT_THROW(parse(R"({"sources": 4294967296})"), std::invalid_argument);
  EXPECT_NO_THROW(parse(R"({})"));
}

// ---------------------------------------------------------------------------
// Determinism: the stream is a pure function of the spec.

TrafficSpec small_spec(std::uint64_t seed) {
  TrafficSpec spec;
  spec.sources = 2000;
  spec.load = 0.15;
  spec.seed = seed;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.05;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);
  spec.burst.enabled = true;
  return spec;
}

TEST(TrafficEngineTest, SameSpecSameStream) {
  std::uint64_t fp[2];
  std::int64_t emitted[2], bytes[2];
  for (int i = 0; i < 2; ++i) {
    auto inst = make_rotor(4, 2, 1);
    TrafficEngine eng(*inst.net, small_spec(33));
    eng.start();
    inst.run_for(20_ms);
    eng.stop();
    fp[i] = eng.stream_fingerprint();
    emitted[i] = eng.flows_emitted();
    bytes[i] = eng.bytes_offered();
    EXPECT_GT(emitted[i], 100);
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_EQ(emitted[0], emitted[1]);
  EXPECT_EQ(bytes[0], bytes[1]);

  auto inst = make_rotor(4, 2, 1);
  TrafficEngine other(*inst.net, small_spec(34));
  other.start();
  inst.run_for(20_ms);
  EXPECT_NE(other.stream_fingerprint(), fp[0]);
}

TEST(TrafficEngineTest, StreamUnaffectedByCohabitingWorkload) {
  std::uint64_t fp[2];
  std::int64_t ops[2];
  for (int i = 0; i < 2; ++i) {
    auto inst = make_rotor(4, 2, 1);
    TrafficEngine eng(*inst.net, small_spec(33));
    // The second run shares the simulator with a KV workload drawing from
    // a fork of the network's own RNG; the engine's derived streams must
    // not shift.
    workload::KvWorkload kv(*inst.net, 0, {1, 2, 3, 4, 5, 6, 7}, 200_us);
    eng.start();
    if (i == 1) kv.start();
    inst.run_for(20_ms);
    eng.stop();
    kv.stop();
    ops[i] = kv.ops_completed();
    fp[i] = eng.stream_fingerprint();
  }
  EXPECT_EQ(ops[0], 0);
  EXPECT_GT(ops[1], 0);
  EXPECT_EQ(fp[0], fp[1]);
}

// Hybrid threshold changes fidelity, never the synthesized stream.
TEST(TrafficEngineTest, ThresholdInvariantStream) {
  std::uint64_t fp[2];
  std::int64_t emitted[2];
  const std::int64_t thresholds[2] = {kPacketOnly, 100'000};
  for (int i = 0; i < 2; ++i) {
    auto inst = make_rotor(4, 2, 1);
    TrafficSpec spec = small_spec(33);
    spec.hybrid_threshold = thresholds[i];
    TrafficEngine eng(*inst.net, std::move(spec));
    eng.start();
    inst.run_for(20_ms);
    eng.stop();
    fp[i] = eng.stream_fingerprint();
    emitted[i] = eng.flows_emitted();
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_EQ(emitted[0], emitted[1]);
}

// Open loop changes how packet flows are sent, never the synthesized
// stream; its raw packet trains never complete.
TEST(TrafficEngineTest, OpenLoopSameStreamAsClosedLoop) {
  std::uint64_t fp[2];
  std::int64_t emitted[2], completed[2];
  for (int i = 0; i < 2; ++i) {
    auto inst = make_rotor(4, 2, 1);
    TrafficSpec spec = small_spec(33);
    spec.open_loop = i == 1;
    TrafficEngine eng(*inst.net, std::move(spec));
    eng.start();
    inst.run_for(20_ms);
    eng.stop();
    fp[i] = eng.stream_fingerprint();
    emitted[i] = eng.flows_emitted();
    completed[i] = eng.flows_completed();
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_EQ(emitted[0], emitted[1]);
  EXPECT_GT(completed[0], 0);
  EXPECT_EQ(completed[1], 0);
}

// Open-loop trains, at line rate and paced (paced sends are scheduled from
// the emitting worker lane), give the same counts at every shard count.
TEST(TrafficEngineTest, OpenLoopIdenticalAtShards1And4) {
  struct Counts {
    std::int64_t emitted, injected, delivered, drops, events;
    bool operator==(const Counts&) const = default;
  };
  const auto run = [](int shards, BitsPerSec pace) {
    arch::Params p;
    p.tors = 16;
    p.hosts_per_tor = 2;
    p.bw = 10e9;
    p.uplinks = 2;
    p.slice = 300_us;
    p.queue_capacity = 768 << 10;
    p.shards = shards;
    auto inst = arch::make_rotornet(p, arch::RotorRouting::Hoho);
    TrafficSpec spec = trace_spec(workload::TraceKind::Rpc, 0.7);
    spec.sources = inst.net->num_hosts();
    spec.transfer.mss = 8936;
    spec.open_loop = true;
    spec.flow_pace_bps = pace;
    TrafficEngine eng(*inst.net, std::move(spec));
    eng.start();
    inst.run_for(3_ms);
    eng.stop();
    const auto t = inst.net->totals();
    return Counts{eng.flows_emitted(), inst.net->packets_injected(),
                  t.delivered, t.congestion_drops + t.fabric_drops,
                  inst.net->sim().events_executed()};
  };
  for (const BitsPerSec pace : {0.0, 3e9}) {
    const Counts one = run(1, pace);
    EXPECT_GT(one.emitted, 0) << "pace " << pace;
    EXPECT_GT(one.delivered, 0) << "pace " << pace;
    EXPECT_EQ(run(4, pace), one) << "pace " << pace;
  }
}

// A stopped engine must not re-arm its sources on top of the stale heap
// (that would double the emission rate); restarting throws instead.
TEST(TrafficEngineTest, RestartAfterStopThrows) {
  auto inst = make_rotor(4, 2, 1);
  TrafficEngine eng(*inst.net, small_spec(33));
  eng.start();
  eng.start();  // idempotent while running
  inst.run_for(5_ms);
  eng.stop();
  EXPECT_THROW(eng.start(), std::logic_error);
}

// Destroying an engine with flows in flight (the start_traffic replacement
// path) must leave no queued event referencing it: the old wave timer and
// fluid wake are cancelled, and completion callbacks of transfers that
// outlive it become no-ops. The CI asan job is the real assertion here.
TEST(TrafficEngineTest, ReplacementWithInFlightFlowsIsSafe) {
  auto inst = make_rotor(4, 2, 1);
  TrafficSpec spec = small_spec(33);
  spec.hybrid_threshold = 100'000;  // both fidelities in flight
  auto eng = std::make_unique<TrafficEngine>(*inst.net, spec);
  eng->start();
  inst.run_for(5_ms);
  ASSERT_GT(eng->flows_emitted(), 0);

  TrafficSpec next = small_spec(34);
  next.hybrid_threshold = 100'000;
  eng = std::make_unique<TrafficEngine>(*inst.net, std::move(next));
  eng->start();
  inst.run_for(20_ms);
  EXPECT_GT(eng->flows_emitted(), 0);
  EXPECT_GT(eng->flows_completed(), 0);

  // And tearing down with everything still in flight is equally safe.
  eng.reset();
  inst.run_for(20_ms);
}

// The same under the lane engine, cut while flows are in flight. A packet
// flow launched on its source ToR's lane posts the bind at its destination
// through the barrier, and its completion to the control queue; either can
// still be queued when the engine dies. A late bind must install nothing
// (it would hand the next data packet to a freed transfer, k = 1 at the
// parent), and a late completion must not touch the dead engine's pool
// (k = 7). Once the network drains, no dead flow is left bound. The CI
// asan job is the real assertion for the completion.
TEST(TrafficEngineTest, ShardedReplacementWithInFlightFlowsIsSafe) {
  for (const int shards : {1, 2}) {
    for (int k = 1; k <= 8; ++k) {
      auto inst = make_rotor(4, 2, 1, 7, shards);
      TrafficSpec spec = small_spec(33 + static_cast<std::uint64_t>(k));
      spec.hybrid_threshold = 100'000;  // both fidelities in flight
      auto eng = std::make_unique<TrafficEngine>(*inst.net, std::move(spec));
      eng->start();
      for (int i = 0; i < 7; ++i) {
        inst.run_for(SimTime::nanos(713'000 + 997 * k));
      }
      ASSERT_GT(eng->flows_emitted(), 0) << "shards " << shards << " k " << k;
      eng.reset();
      inst.run_for(20_ms);
      for (HostId h = 0; h < inst.net->num_hosts(); ++h) {
        EXPECT_EQ(inst.net->host(h).bound_flows(), 0u)
            << "shards " << shards << " k " << k << " host " << h;
      }
    }
  }
}

// Degenerate skew: when the source's own rack is the only hot rack at
// hot_weight 1.0, every row weight is zero and the engine must fall back
// to spreading uniformly instead of dumping the whole row on the last
// rack.
TEST(TrafficEngineTest, DegenerateHotspotFallsBackToUniform) {
  auto inst = make_rotor(4, 1, 1);
  TrafficSpec spec;
  spec.sources = 400;
  spec.load = 0.2;
  spec.seed = 3;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.skew.kind = SkewSpec::Kind::Hotspot;
  spec.skew.hot_tors = 1;
  spec.skew.hot_weight = 1.0;
  spec.hybrid_threshold = kPacketOnly;  // real packets, so bytes hit the TM
  TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();
  inst.run_for(20_ms);
  eng.stop();
  inst.run_for(5_ms);

  const auto tm = inst.net->collect_tm();
  // Rack 0's sources cannot target rack 0; uniform fallback sends
  // comparable byte counts to racks 1..3. (Acks from rack 0 to its
  // senders also land in these cells, but they are ~1% of data volume, so
  // the ratio check cleanly separates fallback from last-rack clamping.)
  std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
  for (int d = 1; d < 4; ++d) {
    lo = std::min(lo, tm[0][static_cast<std::size_t>(d)]);
    hi = std::max(hi, tm[0][static_cast<std::size_t>(d)]);
  }
  ASSERT_GT(hi, 0);
  EXPECT_GT(static_cast<double>(lo), 0.3 * static_cast<double>(hi))
      << "rack 0 row: " << tm[0][1] << " " << tm[0][2] << " " << tm[0][3];
}

// ---------------------------------------------------------------------------
// Rate calibration: emitted flows ≈ load / mean size, with and without
// ON/OFF bursts (the in-ON rate is duty-compensated).

TEST(TrafficEngineTest, EmissionRateMatchesOfferedLoad) {
  for (const bool burst : {false, true}) {
    auto inst = make_rotor(4, 1, 1);
    TrafficSpec spec;
    spec.sources = 1000;
    spec.load = 0.3;
    spec.seed = 17;
    spec.size.base = workload::trace_cdf(workload::TraceKind::Hadoop);
    spec.burst.enabled = burst;
    spec.hybrid_threshold = 200'000;  // keep the big ones cheap (fluid)
    const double mean = mean_size(spec.size);
    TrafficEngine eng(*inst.net, std::move(spec));
    const double horizon_sec = 0.050;
    const double expected = 0.3 *
                            inst.net->config().host_bw *
                            inst.net->num_hosts() / (8.0 * mean) *
                            horizon_sec;
    eng.start();
    inst.run_for(50_ms);
    eng.stop();
    EXPECT_GT(expected, 100.0);
    EXPECT_NEAR(static_cast<double>(eng.flows_emitted()), expected,
                0.25 * expected)
        << "burst=" << burst;
  }
}

// Heavy-hitter share of the emitted stream matches the analytic mixture.
TEST(TrafficEngineTest, HeavyHitterShareMatchesMixture) {
  auto inst = make_rotor(4, 2, 1);
  TrafficSpec spec = small_spec(21);
  spec.load = 0.1;
  spec.size.hh_fraction = 0.1;
  spec.hybrid_threshold = 1'000'000;
  const double expected_share =
      (1.0 - spec.size.hh_fraction) *
          workload::cdf_fraction_above(spec.size.base, 1e6) +
      spec.size.hh_fraction *
          workload::cdf_fraction_above(spec.size.hh, 1e6);
  TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();
  inst.run_for(80_ms);
  eng.stop();
  ASSERT_GT(eng.flows_emitted(), 5000);
  const double share = static_cast<double>(eng.flows_fluid()) /
                       static_cast<double>(eng.flows_emitted());
  EXPECT_GT(expected_share, 0.0);
  EXPECT_NEAR(share, expected_share, 0.5 * expected_share);
}

// ---------------------------------------------------------------------------
// Load-curve zero windows are analytically silent.

TEST(TrafficEngineTest, ZeroCurveWindowEmitsNothing) {
  auto inst = make_rotor(4, 1, 1);
  telemetry::FlightRecorder recorder(std::size_t{1} << 18);
  inst.net->sim().set_recorder(&recorder);
  TrafficSpec spec = small_spec(9);
  spec.sources = 500;
  spec.burst.enabled = true;
  spec.curve = {{0.0, 1.0}, {0.005, 0.0}, {0.010, 1.0}};
  TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();
  inst.run_for(15_ms);
  eng.stop();

  int before = 0, inside = 0, after = 0;
  recorder.for_each([&](const telemetry::TraceEvent& e) {
    if (e.kind != telemetry::EventKind::FlowStart) return;
    if (e.ts < SimTime::millis(5)) {
      ++before;
    } else if (e.ts < SimTime::millis(10)) {
      ++inside;
    } else {
      ++after;
    }
  });
  EXPECT_GT(before, 50);
  EXPECT_EQ(inside, 0);
  EXPECT_GT(after, 50);
}

// ---------------------------------------------------------------------------
// Fluid solver: single-flow throughput tracks the schedule's duty cycle,
// and pair sharing halves it.

TEST(FluidSolverTest, SingleFlowRateTracksScheduleDuty) {
  auto inst = make_rotor(8, 1, 2);
  auto& net = *inst.net;
  net.start();
  const auto& sched = net.schedule();
  // Connected-lane duty of the 0 -> 3 ToR pair over one cycle.
  int lanes = 0;
  for (SliceId s = 0; s < sched.period(); ++s) {
    for (const auto& [nbr, port] : sched.neighbors(0, s)) {
      if (nbr == 3) ++lanes;
    }
  }
  ASSERT_GT(lanes, 0);
  const double duty_rate = net.config().host_bw / 8.0 *
                           static_cast<double>(lanes) /
                           static_cast<double>(sched.period());

  transport::FluidSolver solver(net);
  const std::int64_t bytes = 8 << 20;
  SimTime fct = SimTime::zero();
  solver.launch(0, 3, bytes, [&](SimTime t, std::int64_t) { fct = t; });
  inst.run_for(2000_ms);
  ASSERT_GT(fct.ns(), 0) << "flow never completed";
  EXPECT_EQ(solver.completed(), 1);
  EXPECT_EQ(solver.active(), 0);

  const double cycle_sec = sched.cycle_duration().sec();
  // Overheads (guardband, sync slack, serialization, headers) shave < 10%;
  // phase alignment costs at most ~a cycle either way.
  const double lo = bytes / duty_rate - cycle_sec;
  const double hi = bytes / (duty_rate * 0.85) + 2.0 * cycle_sec;
  EXPECT_GE(fct.sec(), lo);
  EXPECT_LE(fct.sec(), hi);
}

TEST(FluidSolverTest, PairSharingHalvesThroughput) {
  SimTime fct_solo = SimTime::zero(), fct_pair = SimTime::zero();
  for (const int flows : {1, 2}) {
    auto inst = make_rotor(8, 1, 2);
    inst.net->start();
    transport::FluidSolver solver(*inst.net);
    SimTime last = SimTime::zero();
    const std::int64_t bytes = 4 << 20;
    for (int i = 0; i < flows; ++i) {
      solver.launch(0, 3, bytes,
                    [&](SimTime t, std::int64_t) { last = std::max(last, t); });
    }
    inst.run_for(2000_ms);
    ASSERT_GT(last.ns(), 0);
    (flows == 1 ? fct_solo : fct_pair) = last;
  }
  const double ratio = fct_pair.sec() / fct_solo.sec();
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

// ---------------------------------------------------------------------------
// Campaign byte-identity: load_sweep results are identical at any --jobs.

TEST(TrafficCampaignTest, LoadSweepByteIdenticalAcrossJobs) {
  runner::CampaignSpec spec;
  spec.name = "traffic_jobs_gate";
  spec.experiment = "load_sweep";
  spec.seed = 77;
  spec.replicas = 1;
  spec.max_attempts = 1;
  spec.fixed["tors"] = std::int64_t{4};
  spec.fixed["hosts"] = std::int64_t{1};
  spec.fixed["uplinks"] = std::int64_t{1};
  spec.fixed["duration_ms"] = std::int64_t{10};
  spec.fixed["drain_ms"] = std::int64_t{5};
  spec.fixed["sources"] = std::int64_t{2000};
  json::Array loads;
  loads.push_back(0.05);
  loads.push_back(0.15);
  spec.grid["load"] = std::move(loads);
  json::Array thresholds;
  thresholds.push_back(std::int64_t{100'000});
  thresholds.push_back(std::int64_t{1'000'000'000'000});
  spec.grid["hybrid_threshold"] = std::move(thresholds);

  auto fn = runner::find_experiment("load_sweep");
  ASSERT_TRUE(fn);
  std::string results[2];
  const int jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    runner::RunnerOptions opt;
    opt.jobs = jobs[i];
    runner::CampaignRunner runner(spec, fn, opt);
    const auto summary = runner.run();
    EXPECT_EQ(summary.failed, 0);
    EXPECT_EQ(summary.ok, 4);
    results[i] = runner.results_jsonl();
  }
  EXPECT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
}

// ---------------------------------------------------------------------------
// The acceptance gates: on the Fig. 8 campaign shapes, hybrid fidelity
// reproduces packet-level FCTs while executing far fewer events. The two
// campaigns stress opposite ends of the size spectrum — fig08a's mice
// mixtures sit entirely below any sane threshold (hybrid degenerates to
// pure packet level), fig08b's bulk mixtures sit almost entirely above it
// (fluid carries the bytes). Both run on the clos point, where the
// windowed transport reaches fabric capacity instead of being clamped by
// slice-admission drops, so fluid's capacity model is an apples-to-apples
// stand-in. See DESIGN.md on fidelity domains.

struct FidelityRun {
  std::map<std::int64_t, std::int64_t> start_bytes;  // flow -> bytes
  std::map<std::int64_t, std::int64_t> fct_ns;       // flow -> completion
  std::int64_t sim_events = 0;
  std::uint64_t fingerprint = 0;
};

FidelityRun run_fidelity(TrafficSpec spec, std::int64_t threshold,
                         SimTime duration) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 2;
  p.uplinks = 2;
  p.seed = 7;
  auto inst = runner::make_arch("clos", p);
  telemetry::FlightRecorder recorder(std::size_t{1} << 20);
  inst.net->sim().set_recorder(&recorder);

  spec.hybrid_threshold = threshold;
  TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();
  inst.run_for(duration);
  eng.stop();
  inst.run_for(100_ms);  // drain

  FidelityRun out;
  out.sim_events = inst.net->sim().events_executed();
  out.fingerprint = eng.stream_fingerprint();
  recorder.for_each([&](const telemetry::TraceEvent& e) {
    if (e.kind == telemetry::EventKind::FlowStart) {
      out.start_bytes[e.a] = e.b;
    } else if (e.kind == telemetry::EventKind::FlowComplete) {
      out.fct_ns[e.a] = e.b;
    }
  });
  return out;
}

// Mean FCT (ns) over flows completed in BOTH runs whose size passes `keep`.
struct MatchedMean {
  double packet = 0.0;
  double hybrid = 0.0;
  int n = 0;
  double rel_diff() const {
    return std::abs(hybrid - packet) / std::max(packet, 1.0);
  }
};

template <typename Keep>
MatchedMean matched_mean(const FidelityRun& packet, const FidelityRun& hybrid,
                         Keep keep) {
  MatchedMean m;
  double sp = 0, sh = 0;
  for (const auto& [flow, fct] : packet.fct_ns) {
    const auto h = hybrid.fct_ns.find(flow);
    if (h == hybrid.fct_ns.end()) continue;
    const auto b = packet.start_bytes.find(flow);
    if (b == packet.start_bytes.end() || !keep(b->second)) continue;
    sp += static_cast<double>(fct);
    sh += static_cast<double>(h->second);
    ++m.n;
  }
  if (m.n > 0) {
    m.packet = sp / m.n;
    m.hybrid = sh / m.n;
  }
  return m;
}

// fig08b-style bulk mixture: 99.9% of flows at or above 1 MB, so with a
// 1 MB threshold essentially every byte rides the fluid path.
TrafficSpec bulk_spec() {
  TrafficSpec spec;
  spec.sources = 2048;
  spec.load = 0.15;
  spec.seed = 5;
  spec.size.base = {{1'000'000, 0.001},
                    {2'000'000, 0.4},
                    {5'000'000, 0.8},
                    {10'000'000, 1.0}};
  return spec;
}

TEST(HybridAgreementTest, BulkShapeElephantFctWithinFivePercent) {
  const FidelityRun packet =
      run_fidelity(bulk_spec(), kPacketOnly, 100_ms);
  const FidelityRun hybrid =
      run_fidelity(bulk_spec(), 1'000'000, 100_ms);

  // Identical synthesized stream, so per-flow comparison is meaningful.
  ASSERT_EQ(packet.fingerprint, hybrid.fingerprint);

  const MatchedMean ele = matched_mean(
      packet, hybrid, [](std::int64_t b) { return b >= 1'000'000; });
  ASSERT_GT(ele.n, 50);
  EXPECT_LT(ele.rel_diff(), 0.05)
      << "elephant mean FCT: packet=" << ele.packet / 1e3
      << " us, hybrid=" << ele.hybrid / 1e3 << " us over " << ele.n
      << " flows";

  // The speed side of the bargain: moving elephants to fluid fidelity
  // must cut simulator work by at least 5x on this elephant-heavy point.
  const double event_ratio = static_cast<double>(packet.sim_events) /
                             static_cast<double>(hybrid.sim_events);
  EXPECT_GE(event_ratio, 5.0) << "packet events=" << packet.sim_events
                              << " hybrid events=" << hybrid.sim_events;
}

// fig08a-style mice mixture: the KV trace tops out at 1 MB, so a 1 MB
// threshold leaves (essentially) every flow packet-level and hybrid mode
// must not perturb the results.
TEST(HybridAgreementTest, MiceShapeMatchesPacketLevel) {
  TrafficSpec spec;
  spec.sources = 2048;
  spec.load = 0.15;
  spec.seed = 5;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);

  const FidelityRun packet = run_fidelity(spec, kPacketOnly, 40_ms);
  const FidelityRun hybrid = run_fidelity(spec, 1'000'000, 40_ms);

  ASSERT_EQ(packet.fingerprint, hybrid.fingerprint);
  const MatchedMean all =
      matched_mean(packet, hybrid, [](std::int64_t) { return true; });
  ASSERT_GT(all.n, 1000);
  EXPECT_LT(all.rel_diff(), 0.05)
      << "mean FCT: packet=" << all.packet / 1e3
      << " us, hybrid=" << all.hybrid / 1e3 << " us";
}

// Mixed megakv-style mixture (KV mice + Hadoop heavy hitters). Fluid
// fidelity deliberately does not model the queueing pressure elephants
// exert on packet-level mice (see fluid.h's contract), so mice may only
// get FASTER when elephants move to fluid — assert that one-sided bound
// plus a loose elephant guardrail and the event-reduction win.
TEST(HybridAgreementTest, MixedShapeGuardrails) {
  TrafficSpec spec;
  spec.sources = 2048;
  spec.load = 0.15;
  spec.seed = 5;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.3;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);

  const FidelityRun packet = run_fidelity(spec, kPacketOnly, 40_ms);
  const FidelityRun hybrid = run_fidelity(spec, 1'000'000, 40_ms);

  ASSERT_EQ(packet.fingerprint, hybrid.fingerprint);
  const MatchedMean ele = matched_mean(
      packet, hybrid, [](std::int64_t b) { return b >= 1'000'000; });
  const MatchedMean mice = matched_mean(
      packet, hybrid, [](std::int64_t b) { return b < 100'000; });
  ASSERT_GT(ele.n, 20);
  ASSERT_GT(mice.n, 500);
  EXPECT_LT(ele.rel_diff(), 0.25)
      << "elephant mean FCT: packet=" << ele.packet / 1e3
      << " us, hybrid=" << ele.hybrid / 1e3 << " us over " << ele.n
      << " flows";
  EXPECT_LT(mice.hybrid, mice.packet * 1.15)
      << "mice mean FCT: packet=" << mice.packet / 1e3
      << " us, hybrid=" << mice.hybrid / 1e3 << " us";

  const double event_ratio = static_cast<double>(packet.sim_events) /
                             static_cast<double>(hybrid.sim_events);
  EXPECT_GE(event_ratio, 3.0) << "packet events=" << packet.sim_events
                              << " hybrid events=" << hybrid.sim_events;
}

}  // namespace
}  // namespace oo::traffic
