// Second architecture coverage batch: hybrid rotornet, opera bulk plane,
// shale arch at 3-D, and the reTCP knob.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "transport/tcp_lite.h"
#include "workload/kv.h"

namespace oo::arch {
namespace {

using namespace oo::literals;

TEST(Arch2, HybridRotornetUsesBothFabrics) {
  Params p;
  p.tors = 8;
  p.slice = 100_us;
  auto inst = make_rotornet(p, RotorRouting::Direct,
                            /*hybrid_electrical=*/true);
  EXPECT_NE(inst.name.find("hybrid"), std::string::npos);
  ASSERT_NE(inst.net->electrical(), nullptr);
  workload::KvWorkload kv(*inst.net, 0, {1, 2, 3, 4, 5, 6, 7}, 1_ms);
  kv.start();
  inst.run_for(60_ms);
  kv.stop();
  EXPECT_GT(kv.ops_completed(), 300);
  // Per-packet hashing spreads across optical and electrical. With one
  // host per ToR every delivery crossed a fabric, so deliveries beyond the
  // optical fabric's were carried by the electrical one.
  EXPECT_GT(inst.net->optical().delivered(), 0);
  EXPECT_GT(inst.net->totals().delivered, inst.net->optical().delivered());
}

TEST(Arch2, OperaBulkUsesDirectPlane) {
  Params p;
  p.tors = 8;
  p.uplinks = 2;
  p.slice = 100_us;
  auto mice = make_opera(p, /*bulk=*/false);
  auto bulk = make_opera(p, /*bulk=*/true);
  EXPECT_EQ(mice.name, "opera");
  EXPECT_EQ(bulk.name, "opera-bulk");

  auto median_fct = [](Instance& inst) {
    workload::KvWorkload kv(*inst.net, 0, {4}, 500_us);
    kv.start();
    inst.run_for(60_ms);
    kv.stop();
    return kv.fct_us().median();
  };
  // The expander plane forwards within the slice; the direct plane waits
  // for circuits: mice are much faster on the former.
  EXPECT_LT(median_fct(mice) * 3, median_fct(bulk));
}

TEST(Arch2, ShaleThreeDimensional) {
  Params p;
  p.tors = 64;  // 4x4x4
  p.hosts_per_tor = 1;
  p.slice = 100_us;
  auto inst = make_shale(p, 3);
  workload::KvWorkload kv(*inst.net, /*server=*/63, {0, 21, 42}, 1_ms);
  kv.start();
  inst.run_for(60_ms);
  kv.stop();
  EXPECT_GT(kv.ops_completed(), 100);
  EXPECT_EQ(inst.net->totals().no_route_drops, 0);
}

TEST(Arch2, ReTcpRescalesAtReconfigurations) {
  Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = make_rotornet(p, RotorRouting::Direct);
  transport::TcpConfig cfg;
  cfg.app_rate_cap = 40e9;
  cfg.retcp_bandwidth_ratio = 4.0;
  transport::TcpLite tcp(*inst.net, 0, 2, cfg);
  tcp.start();
  inst.run_for(20_ms);
  // The 0->2 circuit toggles across the 3-slice cycle: rescalings fire.
  EXPECT_GT(tcp.retcp_rescalings(), 50);
  EXPECT_GT(tcp.acked_bytes(), 0);
}

TEST(Arch2, ReTcpOffByDefault) {
  Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = make_rotornet(p, RotorRouting::Direct);
  transport::TcpConfig cfg;
  transport::TcpLite tcp(*inst.net, 0, 2, cfg);
  tcp.start();
  inst.run_for(10_ms);
  EXPECT_EQ(tcp.retcp_rescalings(), 0);
}

TEST(Arch2, SemiObliviousNameAndServices) {
  Params p;
  p.tors = 8;
  p.slice = 100_us;
  p.collect_interval = 20_ms;
  auto inst = make_semi_oblivious(p);
  EXPECT_EQ(inst.name, "semi-oblivious");
  EXPECT_NE(inst.collector, nullptr);
}

TEST(Arch2, CThroughHasSteeringAttached) {
  Params p;
  p.tors = 8;
  auto inst = make_cthrough(p);
  EXPECT_NE(inst.steering, nullptr);
  EXPECT_NE(inst.collector, nullptr);
  ASSERT_NE(inst.net->electrical(), nullptr);
  EXPECT_DOUBLE_EQ(inst.net->electrical()->port_bandwidth(), 10e9);
}

}  // namespace
}  // namespace oo::arch
