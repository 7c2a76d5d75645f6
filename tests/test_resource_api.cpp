#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/openoptics.h"
#include "resource/tofino.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "workload/kv.h"

namespace oo {
namespace {

using namespace oo::literals;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Resource, PaperReferenceReproducesTable2) {
  const auto usage =
      resource::estimate_tofino2(resource::paper_reference_inputs());
  EXPECT_NEAR(usage.sram_pct, 3.8, 0.25);
  EXPECT_NEAR(usage.tcam_pct, 2.3, 0.25);
  EXPECT_NEAR(usage.stateful_alu_pct, 9.4, 0.25);
  EXPECT_NEAR(usage.ternary_xbar_pct, 13.8, 0.25);
  EXPECT_NEAR(usage.vliw_pct, 5.6, 0.25);
  EXPECT_NEAR(usage.exact_xbar_pct, 7.8, 0.25);
  EXPECT_NEAR(usage.max_pct(), 13.8, 0.3);  // headroom claim of §7
}

TEST(Resource, UsageGrowsWithTableSize) {
  auto in = resource::paper_reference_inputs();
  const auto base = resource::estimate_tofino2(in);
  in.tft_entries *= 4;
  const auto big = resource::estimate_tofino2(in);
  EXPECT_GT(big.sram_pct, base.sram_pct);
  EXPECT_GT(big.tcam_pct, base.tcam_pct);
  // Drivers unrelated to entries stay flat.
  EXPECT_DOUBLE_EQ(big.stateful_alu_pct, base.stateful_alu_pct);
}

TEST(Resource, FeatureKnobsAddCost) {
  auto in = resource::paper_reference_inputs();
  in.congestion_detection = false;
  const auto off = resource::estimate_tofino2(in);
  in.congestion_detection = true;
  in.pushback = true;
  in.offload = true;
  const auto on = resource::estimate_tofino2(in);
  EXPECT_GT(on.stateful_alu_pct, off.stateful_alu_pct);
  EXPECT_GT(on.ternary_xbar_pct, off.ternary_xbar_pct);
  EXPECT_GT(on.vliw_pct, off.vliw_pct);
}

TEST(Resource, ClampsAtFullChip) {
  resource::TofinoInputs in;
  in.tft_entries = 1'000'000'000;
  const auto u = resource::estimate_tofino2(in);
  EXPECT_LE(u.sram_pct, 100.0);
}

TEST(Resource, TableFormat) {
  const auto u = resource::estimate_tofino2(resource::paper_reference_inputs());
  const auto t = u.table();
  EXPECT_NE(t.find("SRAM"), std::string::npos);
  EXPECT_NE(t.find("Ternary"), std::string::npos);
}

TEST(ApiConfig, ParsesJson) {
  const auto cfg = api::Config::from_json(R"({
    "node_num": 16, "hosts_per_node": 2, "uplink": 3, "bw_gbps": 200.0,
    "slice_us": 50.0, "ocs": "rotor", "calendar": true,
    "electrical_gbps": 10.0, "seed": 7, "pushback": true,
    "congestion_response": "defer", "host_stack": "kernel"
  })");
  EXPECT_EQ(cfg.node_num, 16);
  EXPECT_EQ(cfg.hosts_per_node, 2);
  EXPECT_EQ(cfg.uplink, 3);
  EXPECT_DOUBLE_EQ(cfg.bw_gbps, 200.0);
  EXPECT_EQ(cfg.ocs, "rotor");
  EXPECT_TRUE(cfg.pushback);
  const auto ncfg = cfg.to_network_config();
  EXPECT_EQ(ncfg.num_tors, 16);
  EXPECT_DOUBLE_EQ(ncfg.electrical_bw, 10e9);
  EXPECT_EQ(ncfg.congestion_response, core::CongestionResponse::Defer);
  EXPECT_EQ(ncfg.host_stack, core::HostStack::Kernel);
}

TEST(ApiConfig, DefaultsApply) {
  const auto cfg = api::Config::from_json("{}");
  EXPECT_EQ(cfg.node_num, 8);
  EXPECT_EQ(cfg.ocs, "emulated");
  EXPECT_TRUE(cfg.calendar);
}

TEST(ApiConfig, RejectsBadEnums) {
  auto cfg = api::Config::from_json(R"({"ocs": "quantum"})");
  EXPECT_THROW(cfg.profile(), std::runtime_error);
  auto cfg2 = api::Config::from_json(R"({"congestion_response": "pray"})");
  EXPECT_THROW(cfg2.to_network_config(), std::runtime_error);
}

TEST(ApiNet, FullWorkflow) {
  auto net = api::Net::from_json(R"({"node_num": 8, "slice_us": 100.0})");
  EXPECT_FALSE(net.ready());
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(8, 1),
                              topo::round_robin_period(8)));
  ASSERT_TRUE(net.ready());
  ASSERT_TRUE(net.deploy_routing(routing::vlb(net.schedule()),
                                 api::Lookup::PerHop,
                                 api::Multipath::PerPacket));
  // neighbors() helper (Tab. 1).
  const auto nbrs = net.neighbors(0, 0);
  EXPECT_EQ(nbrs.size(), 1u);
  // earliest_path() helper.
  const auto p = net.earliest_path(0, 5, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_GE(p->hops.size(), 1u);

  // Drive traffic through the public API and read telemetry.
  core::Packet pkt;
  pkt.type = core::PacketType::Data;
  pkt.flow = 1;
  pkt.dst_host = 5;
  pkt.size_bytes = 1500;
  int got = 0;
  net.network().host(5).bind_flow(1, [&](core::Packet&&) { ++got; });
  net.network().host(0).send(std::move(pkt));
  net.run_for(2_ms);
  EXPECT_EQ(got, 1);
  const auto tm = net.collect();
  EXPECT_DOUBLE_EQ(tm.at(0, 5), 1500.0);
  EXPECT_GE(net.bw_usage(0), 1500);
  EXPECT_EQ(net.buffer_usage(0), 0);  // drained
}

TEST(ApiNet, ConnectPrimitive) {
  const auto c = api::Net::connect(0, 1, 2, 3, 4);
  EXPECT_EQ(c.a, 0);
  EXPECT_EQ(c.a_port, 1);
  EXPECT_EQ(c.b, 2);
  EXPECT_EQ(c.b_port, 3);
  EXPECT_EQ(c.slice, 4);
}

TEST(ApiNet, AddEntryDirectly) {
  auto net = api::Net::from_json(R"({"node_num": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  core::TftEntry e;
  e.match = core::TftMatch{kAnySlice, kInvalidNode, 2};
  e.actions.push_back(core::TftAction{{net::SourceHop{0, 0}}, 1.0});
  EXPECT_TRUE(net.add(e, 0));
  EXPECT_FALSE(net.add(e, 99));
}

TEST(ApiNet, InfeasibleTopoRejected) {
  auto net = api::Net::from_json(R"({"node_num": 4, "uplink": 1})");
  // Two circuits on the same port in the same slice.
  std::vector<optics::Circuit> bad = {{0, 0, 1, 0, 0}, {0, 0, 2, 0, 0}};
  EXPECT_FALSE(net.deploy_topo(bad, 2));
  EXPECT_FALSE(net.ready());
}

// The script API's file writers on a sharded net: the Chrome trace stitches
// the per-shard rings into node tracks labelled with their owning shard.
TEST(ApiNet, ShardedTraceAndMetricsFiles) {
  auto net = api::Net::from_json(R"({"node_num": 8, "shards": 2})");
  net.enable_tracing();
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(8, 1),
                              topo::round_robin_period(8)));
  ASSERT_TRUE(net.deploy_routing(routing::vlb(net.schedule()),
                                 api::Lookup::PerHop,
                                 api::Multipath::PerPacket));
  workload::KvWorkload kv(net.network(), /*server=*/0,
                          {1, 2, 3, 4, 5, 6, 7}, /*mean_interval=*/500_us);
  kv.start();
  net.run_for(5_ms);
  kv.stop();
  ASSERT_GT(kv.ops_completed(), 0);

  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "oo_api_sharded_trace.json";
  const std::string csv_path = dir + "oo_api_sharded_metrics.csv";
  net.write_chrome_trace(trace_path);
  net.write_metrics_csv(csv_path);

  const std::string trace = read_file(trace_path);
  EXPECT_NE(trace.find("\"node_0 (shard 0)\""), std::string::npos);
  EXPECT_NE(trace.find("\"node_1 (shard 1)\""), std::string::npos);
  EXPECT_EQ(read_file(csv_path).rfind("metric,value\n", 0), 0u);
  std::remove(trace_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace oo
