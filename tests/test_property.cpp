// Parameterized property sweeps across module boundaries: routing schemes
// compile and deploy cleanly on every rotor size, schedules stay feasible
// under random demand, the TFT respects precedence under fuzzing, and the
// calendar queue conserves packets under random operation sequences.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/controller.h"
#include "core/network.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "topo/bvn.h"
#include "topo/jupiter.h"
#include "topo/matching.h"
#include "topo/round_robin.h"
#include "topo/sorn.h"
#include "workload/kv.h"

namespace oo {
namespace {

using namespace oo::literals;
using core::Controller;
using core::LookupMode;
using core::MultipathMode;
using core::Network;
using core::NetworkConfig;

// ---------------------------------------------------------------------------
// Every TO routing scheme delivers end-to-end on every rotor size.

// The scheme is a std::string, not a const char*: gtest prints a char
// pointer with its address, which would put a per-process address into
// every listed test name and make the names differ from build to build.
class ToSchemeParam
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(ToSchemeParam, CompilesDeploysDelivers) {
  const auto [scheme, tors, uplinks] = GetParam();
  if (scheme == "opera" && uplinks < 2) {
    GTEST_SKIP() << "Opera needs >= 2 uplinks: one matching per slice is "
                    "not a connected expander";
  }
  NetworkConfig cfg;
  cfg.num_tors = tors;
  cfg.calendar_mode = true;
  optics::Schedule sched(tors, uplinks, topo::round_robin_period(tors),
                         100_us);
  for (const auto& c : topo::round_robin_1d(tors, uplinks)) {
    ASSERT_TRUE(sched.add_circuit(c));
  }
  Network net(cfg, sched, optics::ocs_emulated());
  Controller ctl(net);

  std::vector<core::Path> paths;
  LookupMode lookup = LookupMode::PerHop;
  MultipathMode mp = MultipathMode::None;
  if (scheme == "vlb") {
    paths = routing::vlb(sched);
    mp = MultipathMode::PerPacket;
  } else if (scheme == "direct") {
    paths = routing::direct_to(sched);
  } else if (scheme == "opera") {
    paths = routing::opera(sched);
  } else if (scheme == "hoho") {
    paths = routing::hoho(sched);
  } else if (scheme == "ucmp") {
    paths = routing::ucmp(sched);
    lookup = LookupMode::SourceRouting;
    mp = MultipathMode::PerPacket;
  }
  ASSERT_FALSE(paths.empty());
  ASSERT_TRUE(ctl.deploy_routing(paths, lookup, mp)) << ctl.last_error();
  net.start();

  // Mice between the two most distant nodes.
  workload::KvWorkload kv(net, 0, {static_cast<HostId>(tors / 2)}, 500_us);
  kv.start();
  net.sim().run_until(60_ms);
  kv.stop();
  EXPECT_GT(kv.ops_completed(), 50) << scheme << " " << tors;
  EXPECT_EQ(net.totals().no_route_drops, 0) << scheme;
  EXPECT_EQ(net.totals().fabric_drops, 0) << scheme;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ToSchemeParam,
    ::testing::Combine(::testing::Values("vlb", "direct", "opera", "hoho",
                                         "ucmp"),
                       ::testing::Values(4, 8, 12),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_u" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Topology generators produce feasible schedules on random demand.

class RandomTmParam : public ::testing::TestWithParam<int> {};

TEST_P(RandomTmParam, SornAndBvnFeasibleOnRandomDemand) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int n = 8;
  topo::TrafficMatrix tm(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.uniform01() < 0.4) {
        tm.at(i, j) = rng.exponential(1e6);
      }
    }
  }
  const SliceId period = 14;
  {
    optics::Schedule s(n, 1, period, 100_us);
    for (const auto& c : topo::sorn(tm, n, period)) {
      ASSERT_TRUE(s.add_circuit(c)) << "sorn conflict, seed " << seed;
    }
  }
  {
    optics::Schedule s(n, 1, period, 100_us);
    for (const auto& c : topo::bvn(tm, period)) {
      ASSERT_TRUE(s.add_circuit(c)) << "bvn conflict, seed " << seed;
    }
  }
  {
    optics::Schedule s(n, 2, 1, SimTime::seconds(1));
    for (const auto& c : topo::edmonds(tm, 2, 1e6)) {
      ASSERT_TRUE(s.add_circuit(c)) << "edmonds conflict, seed " << seed;
    }
  }
}

TEST_P(RandomTmParam, BvnServesDominantDemand) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const int n = 8;
  topo::TrafficMatrix tm(n);
  // One dominant pair plus noise.
  const NodeId a = static_cast<NodeId>(rng.uniform(n));
  NodeId b = static_cast<NodeId>(rng.uniform(n));
  if (b == a) b = static_cast<NodeId>((a + 1) % n);
  tm.at(a, b) = 1e9;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j && tm.at(i, j) == 0) tm.at(i, j) = rng.exponential(1e5);

  const SliceId period = 14;
  optics::Schedule s(n, 1, period, 100_us);
  for (const auto& c : topo::bvn(tm, period)) s.add_circuit(c);
  // The dominant pair holds a plurality of slices.
  std::map<std::pair<NodeId, NodeId>, int> slices;
  for (SliceId t = 0; t < period; ++t) {
    for (NodeId m = 0; m < n; ++m) {
      for (const auto& [v, port] : s.neighbors(m, t)) {
        (void)port;
        if (m < v) ++slices[{m, v}];
      }
    }
  }
  const auto hot = slices[{std::min(a, b), std::max(a, b)}];
  for (const auto& [pair, count] : slices) {
    EXPECT_LE(count, hot) << "pair (" << pair.first << "," << pair.second
                          << ") out-slices the dominant pair, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTmParam, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Time-flow table fuzz: lookup precedence always matches a reference scan.

TEST(TftFuzz, LookupMatchesReferenceModel) {
  Rng rng(2024);
  for (int round = 0; round < 30; ++round) {
    core::TimeFlowTable tft;
    // Reference: map from full key to entry id, mirroring add() semantics.
    struct Ref {
      core::TftMatch m;
      int id;
      int priority;
    };
    std::map<std::tuple<SliceId, NodeId, NodeId>, Ref> ref;
    for (int i = 0; i < 60; ++i) {
      core::TftMatch m;
      m.arr_slice = rng.uniform01() < 0.3
                        ? kAnySlice
                        : static_cast<SliceId>(rng.uniform(4));
      m.src = rng.uniform01() < 0.3 ? kInvalidNode
                                    : static_cast<NodeId>(rng.uniform(4));
      m.dst = static_cast<NodeId>(rng.uniform(4));
      const int prio = static_cast<int>(rng.uniform(3));
      core::TftEntry e;
      e.match = m;
      e.priority = prio;
      e.actions.push_back(
          core::TftAction{{net::SourceHop{static_cast<PortId>(i), 0}}, 1.0});
      tft.add(e);
      auto key = std::make_tuple(m.arr_slice, m.src, m.dst);
      auto it = ref.find(key);
      if (it == ref.end() || prio >= it->second.priority) {
        ref[key] = Ref{m, i, prio};
      }
    }
    // Probe every concrete (arr, src, dst).
    for (SliceId arr = 0; arr < 4; ++arr) {
      for (NodeId src = 0; src < 4; ++src) {
        for (NodeId dst = 0; dst < 4; ++dst) {
          const auto* got = tft.lookup(arr, src, dst);
          // Reference: specificity order.
          const Ref* want = nullptr;
          for (auto key : {std::make_tuple(arr, src, dst),
                           std::make_tuple(arr, kInvalidNode, dst),
                           std::make_tuple(kAnySlice, src, dst),
                           std::make_tuple(kAnySlice, kInvalidNode, dst)}) {
            auto it = ref.find(key);
            if (it != ref.end()) {
              want = &it->second;
              break;
            }
          }
          if (want == nullptr) {
            EXPECT_EQ(got, nullptr);
          } else {
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(got->actions[0].hops[0].egress,
                      static_cast<PortId>(want->id));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Calendar queue conservation under random operations.

class CalendarFuzzParam : public ::testing::TestWithParam<int> {};

TEST_P(CalendarFuzzParam, PacketsConservedUnderRandomOps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int k = 2 + static_cast<int>(rng.uniform(14));
  core::CalendarQueuePort port(k, 1 << 20);
  std::int64_t in = 0, out = 0, rejected = 0;
  std::int64_t bytes_in = 0, bytes_out = 0;
  for (int op = 0; op < 5000; ++op) {
    const double x = rng.uniform01();
    if (x < 0.5) {
      const std::int64_t size = 64 + rng.uniform(9000);
      net::Packet p;
      p.size_bytes = size;
      const int rank = static_cast<int>(rng.uniform(
          static_cast<std::uint32_t>(k + 2)));  // sometimes overflowing
      const auto v = port.try_enqueue(std::move(p), rank);
      if (v == core::EnqueueVerdict::Ok) {
        ++in;
        bytes_in += size;
      } else {
        ++rejected;
      }
    } else if (x < 0.8) {
      if (auto p = port.active_queue().dequeue()) {
        ++out;
        bytes_out += p->size_bytes;
      }
    } else {
      port.rotate();
    }
  }
  // Conservation: everything admitted is either dequeued or still queued.
  EXPECT_EQ(port.total_bytes(), bytes_in - bytes_out);
  std::int64_t queued = 0;
  for (int r = 0; r < k; ++r) {
    queued += static_cast<std::int64_t>(port.queue_at_rank(r).size());
  }
  EXPECT_EQ(queued, in - out);
  EXPECT_EQ(port.rank_overflows() + port.full_rejects(), rejected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarFuzzParam, ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Static (TA) schemes deliver across random connected meshes.

class TaSchemeParam : public ::testing::TestWithParam<int> {};

TEST_P(TaSchemeParam, EcmpWcmpKspDeliverOnRandomMesh) {
  const int seed = GetParam();
  NetworkConfig cfg;
  cfg.num_tors = 8;
  cfg.calendar_mode = false;
  // Random connected mesh: a jupiter cold-start mesh is always connected.
  optics::Schedule sched(8, 3, 1, SimTime::seconds(3600));
  for (const auto& c :
       topo::jupiter(topo::TrafficMatrix{}, 8, 3)) {
    sched.add_circuit(c);
  }
  for (auto scheme : {0, 1, 2}) {
    Network net(cfg, sched, optics::ocs_mems());
    Controller ctl(net);
    std::vector<core::Path> paths;
    LookupMode lookup = LookupMode::PerHop;
    if (scheme == 0) paths = routing::ecmp(sched);
    if (scheme == 1) paths = routing::wcmp(sched);
    if (scheme == 2) {
      paths = routing::ksp(sched, 2);
      lookup = LookupMode::SourceRouting;
    }
    ASSERT_TRUE(ctl.deploy_routing(paths, lookup, MultipathMode::PerFlow));
    net.start();
    int got = 0;
    const HostId dst = static_cast<HostId>(1 + (seed % 7));
    net.host(dst).bind_flow(5, [&](core::Packet&&) { ++got; });
    net.sim().schedule_at(1_us, [&]() {
      core::Packet p;
      p.type = core::PacketType::Data;
      p.flow = 5;
      p.dst_host = dst;
      p.size_bytes = 1500;
      net.host(0).send(std::move(p));
    });
    net.sim().run_until(2_ms);
    EXPECT_EQ(got, 1) << "scheme " << scheme << " dst " << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaSchemeParam, ::testing::Range(1, 8));

}  // namespace
}  // namespace oo
