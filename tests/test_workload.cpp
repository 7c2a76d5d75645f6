#include <gtest/gtest.h>

#include "core/controller.h"
#include "routing/ta_routing.h"
#include "topo/round_robin.h"
#include "traffic/engine.h"
#include "workload/allreduce.h"
#include "workload/kv.h"
#include "workload/traces.h"
#include "workload/transfer_pool.h"

namespace oo::workload {
namespace {

using namespace oo::literals;
using core::Controller;
using core::LookupMode;
using core::MultipathMode;
using core::Network;
using core::NetworkConfig;

std::unique_ptr<Network> make_electrical_net(int tors, int hosts_per_tor = 1) {
  NetworkConfig cfg;
  cfg.num_tors = tors;
  cfg.hosts_per_tor = hosts_per_tor;
  cfg.calendar_mode = false;
  cfg.electrical_bw = 100e9;
  optics::Schedule sched(tors, 1, 1, SimTime::seconds(3600));
  auto net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  Controller ctl(*net);
  ctl.deploy_routing(routing::electrical_default(tors), LookupMode::PerHop,
                     MultipathMode::None);
  net->start();
  return net;
}

TEST(TransferPool, LaunchesAndReclaims) {
  auto net = make_electrical_net(2);
  TransferPool pool(*net);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    pool.launch(0, 1, 10000, {}, [&](SimTime, std::int64_t) { ++done; });
  }
  EXPECT_EQ(pool.active(), 5u);
  net->sim().run_until(50_ms);
  EXPECT_EQ(done, 5);
  EXPECT_EQ(pool.completed(), 5);
  EXPECT_EQ(pool.active(), 0u);  // reclaimed after completion
}

TEST(TransferPool, ReusesReclaimedSlots) {
  auto net = make_electrical_net(2);
  TransferPool pool(*net);
  int done = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) {
      pool.launch(0, 1, 10000, {}, [&](SimTime, std::int64_t) { ++done; });
    }
    net->sim().run_until(net->sim().now() + 10_ms);
    EXPECT_EQ(pool.active(), 0u);
    EXPECT_EQ(pool.slots(), 3u) << "round " << round;
  }
  EXPECT_EQ(done, 9);
  EXPECT_EQ(pool.launched(), 9);
}

TEST(TransferPool, CountsATransferUntilItsReclaimRuns) {
  auto net = make_electrical_net(2);
  TransferPool pool(*net);
  std::vector<std::size_t> seen;
  pool.launch(0, 1, 10000, {}, [&](SimTime, std::int64_t) {
    seen.push_back(pool.active());
    // Scheduled before the pool schedules the reclaim, so it runs first.
    net->sim().schedule_at(net->sim().now(),
                           [&]() { seen.push_back(pool.active()); });
  });
  net->sim().run_until(10_ms);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(pool.active(), 0u);
  EXPECT_EQ(pool.completed(), 1);
}

TEST(TransferPool, CompletionThatLaunchesGrowsTheSlabInPlace) {
  // The flows fill the first chunk of slots, so the first completion's
  // launch grows the slab while that completion's closure, held inline in
  // its slot (it captures one reference), still runs and reads its capture
  // afterwards; the asan job checks that read.
  constexpr int kFlows = 64;
  auto net = make_electrical_net(2);
  TransferPool pool(*net);
  struct {
    TransferPool& pool;
    int first = 0;
    int second = 0;
  } c{pool};
  for (int i = 0; i < kFlows; ++i) {
    pool.launch(0, 1, 20000, {}, [&c](SimTime, std::int64_t) {
      c.pool.launch(1, 0, 20000, {},
                    [&c](SimTime, std::int64_t) { ++c.second; });
      ++c.first;
    });
  }
  EXPECT_EQ(pool.slots(), static_cast<std::size_t>(kFlows));
  net->sim().run_until(50_ms);
  EXPECT_EQ(c.first, kFlows);
  EXPECT_EQ(c.second, kFlows);
  EXPECT_GT(pool.slots(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(pool.active(), 0u);
}

TEST(TransferPool, DestroyedWithReclaimsPendingRunsNothing) {
  auto net = make_electrical_net(2);
  auto pool = std::make_unique<TransferPool>(*net);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    pool->launch(0, 1, 10000, {}, [&](SimTime, std::int64_t) {
      ++done;
      // Destroy the pool between this completion and its reclaim, with the
      // other transfers still in flight.
      net->sim().schedule_at(net->sim().now(), [&]() { pool.reset(); });
    });
  }
  net->sim().run_until(50_ms);
  EXPECT_EQ(pool, nullptr);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(net->host(0).bound_flows(), 0u);
  EXPECT_EQ(net->host(1).bound_flows(), 0u);
}

TEST(KvWorkload, RecordsFcts) {
  auto net = make_electrical_net(4);
  KvWorkload kv(*net, /*server=*/0, {1, 2, 3}, /*mean_interval=*/500_us);
  kv.start();
  net->sim().run_until(50_ms);
  kv.stop();
  EXPECT_GT(kv.ops_completed(), 100);
  EXPECT_GT(kv.fct_us().median(), 0.0);
  EXPECT_LT(kv.fct_us().median(), 1000.0);  // electrical path is fast
}

TEST(RingAllreduce, CompletesAllSteps) {
  auto net = make_electrical_net(4);
  bool done = false;
  SimTime total;
  RingAllreduce ar(*net, {0, 1, 2, 3}, /*data=*/4 << 20,
                   [&](SimTime t) {
                     done = true;
                     total = t;
                   });
  EXPECT_EQ(ar.steps_total(), 6);  // 2*(4-1)
  ar.start();
  net->sim().run_until(500_ms);
  ASSERT_TRUE(done);
  EXPECT_TRUE(ar.finished());
  // 6 steps x 1 MB chunks at 100 Gbps ~ 0.5 ms of wire time minimum.
  EXPECT_GT(total, 400_us);
  EXPECT_LT(total, 100_ms);
}

TEST(RingAllreduce, LargerDataTakesLonger) {
  auto run = [](std::int64_t bytes) {
    auto net = make_electrical_net(4);
    SimTime total;
    RingAllreduce ar(*net, {0, 1, 2, 3}, bytes, [&](SimTime t) { total = t; });
    ar.start();
    net->sim().run_until(2_s);
    return total;
  };
  EXPECT_LT(run(800 << 10), run(8 << 20));
}

TEST(TraceCdfs, AreValidDistributions) {
  for (auto kind : {TraceKind::Rpc, TraceKind::Hadoop, TraceKind::KvStore}) {
    const auto& cdf = trace_cdf(kind);
    ASSERT_FALSE(cdf.empty()) << trace_name(kind);
    double prev_c = 0.0, prev_b = 0.0;
    for (const auto& pt : cdf) {
      EXPECT_GT(pt.bytes, prev_b);
      EXPECT_GT(pt.cum, prev_c);
      prev_b = pt.bytes;
      prev_c = pt.cum;
    }
    EXPECT_DOUBLE_EQ(cdf.back().cum, 1.0);
  }
}

TEST(TraceCdfs, SamplesWithinSupport) {
  Rng rng(3);
  for (auto kind : {TraceKind::Rpc, TraceKind::Hadoop, TraceKind::KvStore}) {
    const auto& cdf = trace_cdf(kind);
    for (int i = 0; i < 2000; ++i) {
      const double s = sample_flow_size(cdf, rng);
      EXPECT_GE(s, 1.0);
      EXPECT_LE(s, cdf.back().bytes * 1.001);
    }
  }
}

TEST(TraceCdfs, EmpiricalMeanNearAnalytic) {
  Rng rng(17);
  const auto& cdf = trace_cdf(TraceKind::Hadoop);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += sample_flow_size(cdf, rng);
  const double analytic = mean_flow_size(cdf);
  EXPECT_NEAR(sum / n / analytic, 1.0, 0.25);  // heavy tail: loose bound
}

TEST(TraceCdfs, KvFlowsAreSmallest) {
  EXPECT_LT(mean_flow_size(trace_cdf(TraceKind::KvStore)),
            mean_flow_size(trace_cdf(TraceKind::Rpc)));
  EXPECT_LT(mean_flow_size(trace_cdf(TraceKind::Rpc)),
            mean_flow_size(trace_cdf(TraceKind::Hadoop)));
}

// Closed-loop trace flows (traffic::TrafficEngine with a trace CDF).
traffic::TrafficSpec kv_trace(double load) {
  traffic::TrafficSpec spec;
  spec.load = load;
  spec.size.base = trace_cdf(TraceKind::KvStore);
  return spec;
}

TEST(TraceReplay, GeneratesInterTorLoad) {
  auto net = make_electrical_net(4, 2);
  traffic::TrafficEngine replay(*net, kv_trace(/*load=*/0.1));
  replay.start();
  net->sim().run_until(20_ms);
  replay.stop();
  net->sim().run_until(30_ms);
  EXPECT_GT(replay.flows_completed(), 50);
  EXPECT_GT(replay.mice_fct_us().count(), 0);
  // All generated flows cross ToR boundaries.
  const auto tm = net->collect_tm();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tm[static_cast<size_t>(i)][static_cast<size_t>(i)], 0);
}

TEST(TraceReplay, LoadScalesArrivals) {
  auto count_at = [](double load) {
    auto net = make_electrical_net(4, 2);
    traffic::TrafficEngine replay(*net, kv_trace(load));
    replay.start();
    net->sim().run_until(10_ms);
    return replay.flows_emitted();
  };
  const auto low = count_at(0.05);
  const auto high = count_at(0.4);
  EXPECT_GT(high, low * 4);
}

}  // namespace
}  // namespace oo::workload
