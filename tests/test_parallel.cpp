// Sharded parallel engine (src/parallel/): byte-identity across shard
// counts, cross-shard conservation under the invariant monitor, and
// deterministic replay of control-plane fault scenarios on worker lanes.
//
// The identity tests pin the engine's core contract: shards=1 runs the
// windowed lane engine inline (zero threads) and shards∈{2,4,8} must
// reproduce its experiment rows byte for byte — worker count only chooses
// a thread layout, never a result.
#include <gtest/gtest.h>

#include <string>

#include "api/openoptics.h"
#include "parallel/sharded.h"
#include "routing/to_routing.h"
#include "runner/experiments.h"
#include "runner/runner.h"
#include "topo/round_robin.h"

namespace oo {
namespace {

using namespace oo::literals;

// One experiment run -> its result row, as the canonical JSON dump. The
// row is a pure function of (seed, params) for every built-in experiment,
// so equal dumps mean equal simulations.
json::Object run_row(const std::string& experiment, runner::RunSpec spec,
                     int shards) {
  spec.params["shards"] = static_cast<std::int64_t>(shards);
  runner::RunContext ctx{spec, 1};
  return runner::find_experiment(experiment)(ctx);
}

std::string dump_row(const json::Object& row) {
  return json::Value(row).dump();
}

runner::RunSpec small_fct_spec() {
  runner::RunSpec spec;
  spec.seed = 7;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["duration_ms"] = static_cast<std::int64_t>(20);
  spec.params["kv_interval_ms"] = 0.5;
  return spec;
}

TEST(ShardedEngine, FctByteIdenticalAtAnyShardCount) {
  const json::Object base = run_row("fct", small_fct_spec(), 1);
  EXPECT_GT(base.at("delivered").as_int(), 0);
  const std::string want = dump_row(base);
  for (int shards : {2, 4, 8}) {
    EXPECT_EQ(dump_row(run_row("fct", small_fct_spec(), shards)), want)
        << "shards=" << shards;
  }
}

runner::RunSpec small_load_sweep_spec() {
  runner::RunSpec spec;
  spec.seed = 11;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["sources"] = static_cast<std::int64_t>(64);
  spec.params["load"] = 0.2;
  spec.params["duration_ms"] = static_cast<std::int64_t>(10);
  spec.params["drain_ms"] = static_cast<std::int64_t>(10);
  return spec;
}

TEST(ShardedEngine, LoadSweepByteIdenticalAtAnyShardCount) {
  const json::Object base = run_row("load_sweep", small_load_sweep_spec(), 1);
  EXPECT_GT(base.at("flows_emitted").as_int(), 0);
  EXPECT_NE(base.at("fingerprint").as_string(), "0000000000000000");
  const std::string want = dump_row(base);
  for (int shards : {2, 4, 8}) {
    EXPECT_EQ(dump_row(run_row("load_sweep", small_load_sweep_spec(), shards)),
              want)
        << "shards=" << shards;
  }
}

// The synthesized flow stream is a pure function of the spec — the legacy
// single-queue engine (shards=0) and the windowed lane engine emit the
// identical stream even though their delivery dynamics differ (cross-lane
// hops quantize to window starts only in the lane engine).
TEST(ShardedEngine, EmissionStreamMatchesLegacyEngine) {
  const json::Object legacy = run_row("load_sweep", small_load_sweep_spec(), 0);
  const json::Object lane = run_row("load_sweep", small_load_sweep_spec(), 1);
  EXPECT_EQ(legacy.at("fingerprint").as_string(),
            lane.at("fingerprint").as_string());
  EXPECT_EQ(legacy.at("flows_emitted").as_int(),
            lane.at("flows_emitted").as_int());
  EXPECT_EQ(legacy.at("bytes_offered").as_int(),
            lane.at("bytes_offered").as_int());
}

// quorum_chaos scripts a leader kill at 20 ms (plus port fail/repair, log
// divergence, and a replica partition) against a replicated controller:
// the control-plane machinery stays on the control queue, so the scenario
// must replay deterministically on any worker layout.
runner::RunSpec quorum_spec() {
  runner::RunSpec spec;
  spec.seed = 3;
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["controller_replicas"] = static_cast<std::int64_t>(3);
  spec.params["duration_ms"] = static_cast<std::int64_t>(40);
  return spec;
}

TEST(ShardedEngine, QuorumChaosLeaderKillReplaysByteIdentically) {
  const json::Object base = run_row("quorum_chaos", quorum_spec(), 1);
  const std::string want = dump_row(base);
  for (int shards : {2, 4}) {
    EXPECT_EQ(dump_row(run_row("quorum_chaos", quorum_spec(), shards)), want)
        << "shards=" << shards;
  }
  // Replay: the same spec at the same shard count is a fixed point.
  EXPECT_EQ(dump_row(run_row("quorum_chaos", quorum_spec(), 4)),
            dump_row(run_row("quorum_chaos", quorum_spec(), 4)));
}

// End-to-end through the user API: a sharded Net with production traffic
// and the invariant monitor attached. The engine's cross-shard packet
// conservation check runs at every window barrier; any imbalance (a staged
// message lost or double-delivered) lands in the monitor's violation list.
TEST(ShardedEngine, CrossShardConservationHoldsUnderTraffic) {
  auto net = api::Net::from_json(
      R"({"node_num": 8, "uplink": 1, "slice_us": 5, "shards": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(8, 1),
                              topo::round_robin_period(8)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  auto& monitor = net.enable_invariants(50_us);
  net.start_traffic_json(R"({
    "sources": 64, "load": 0.3, "seed": 5, "size": {"cdf": "kv"}
  })");
  net.run_for(5_ms);
  net.traffic()->stop();
  net.run_for(2_ms);

  auto* engine = net.network().sharded_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->num_workers(), 4);
  EXPECT_GT(engine->stats().windows, 0);
  EXPECT_GT(engine->stats().cross_delivered, 0);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
  EXPECT_GT(net.traffic()->flows_emitted(), 0);
}

// Tier-1 smoke at datacenter scale: a 256-ToR rotor fabric must come up,
// carry traffic, and stay byte-identical between the inline and threaded
// layouts. Short horizon — this guards wiring, not throughput.
TEST(ShardedEngine, Smoke256TorsByteIdentical) {
  runner::RunSpec spec;
  spec.seed = 9;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(256);
  spec.params["duration_ms"] = static_cast<std::int64_t>(3);
  spec.params["kv_interval_ms"] = 0.2;
  const json::Object base = run_row("fct", spec, 1);
  EXPECT_GT(base.at("delivered").as_int(), 0);
  EXPECT_EQ(dump_row(run_row("fct", spec, 4)), dump_row(base));
}

}  // namespace
}  // namespace oo
