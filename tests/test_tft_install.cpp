// What the controller installs, across every transaction path: after each
// path, every ToR's table must answer every (arrival slice, source,
// destination) query as a reference table (tft_reference.h) fed the same
// entries does, down to the hops it selects at five packet hashes.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "tft_reference.h"
#include "topo/round_robin.h"

namespace oo::core {
namespace {

using namespace oo::literals;

constexpr int kTors = 8;

optics::Schedule rotor() {
  optics::Schedule s(kTors, 2, topo::round_robin_period(kTors), 100_us);
  for (const auto& c : topo::round_robin_1d(kTors, 2)) s.add_circuit(c);
  return s;
}

// Per-node reference tables, fed what each committed transaction installs.
struct Mirror {
  void install(const std::vector<Path>& paths, LookupMode lookup,
               int priority, std::uint64_t epoch,
               std::optional<int> clear = std::nullopt) {
    auto per_node = reference::compile_routing(paths, lookup, priority, kTors);
    for (std::size_t n = 0; n < tables.size(); ++n) {
      if (clear) tables[n].remove_priority(*clear);
      for (auto& e : per_node[n]) {
        e.epoch = epoch;
        tables[n].add(e);
      }
    }
  }

  std::vector<reference::TimeFlowTable> tables{kTors};
};

// The first difference between two entries ("" when they are the same),
// weights compared bit for bit.
std::string entry_diff(const TftEntry& a, const TftEntry& b) {
  if (!(a.match == b.match)) return "match";
  if (a.priority != b.priority) return "priority";
  if (a.epoch != b.epoch) return "epoch";
  if (a.actions.size() != b.actions.size()) return "action count";
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    const auto& x = a.actions[i];
    const auto& y = b.actions[i];
    if (std::bit_cast<std::uint64_t>(x.weight) !=
            std::bit_cast<std::uint64_t>(y.weight) ||
        x.hops.size() != y.hops.size()) {
      return "action " + std::to_string(i);
    }
    for (std::size_t h = 0; h < x.hops.size(); ++h) {
      if (x.hops[h].egress != y.hops[h].egress ||
          x.hops[h].dep_slice != y.hops[h].dep_slice) {
        return "hop " + std::to_string(h) + " of action " + std::to_string(i);
      }
    }
  }
  return "";
}

// The hops a lookup selects at `hash` against the reference's selection
// ("" when they are the same).
std::string hops_diff(const TftHops& got, const TftAction& want) {
  std::vector<net::SourceHop> hops{got.first};
  hops.insert(hops.end(), got.rest.begin(), got.rest.end());
  if (hops.size() != want.hops.size()) return "hop count";
  for (std::size_t h = 0; h < hops.size(); ++h) {
    if (hops[h].egress != want.hops[h].egress ||
        hops[h].dep_slice != want.hops[h].dep_slice) {
      return "hop " + std::to_string(h);
    }
  }
  return "";
}

void expect_installed(Network& net, const Mirror& mirror) {
  const SliceId period = net.schedule().period();
  for (NodeId node = 0; node < kTors; ++node) {
    const TimeFlowTable& table = net.tor(node).tft();
    const auto& ref = mirror.tables[static_cast<std::size_t>(node)];
    ASSERT_EQ(table.size(), ref.size()) << "node " << node;
    for (SliceId arr = kAnySlice; arr <= period; ++arr) {
      for (NodeId src = kInvalidNode; src <= kTors; ++src) {
        for (NodeId dst = 0; dst <= kTors; ++dst) {
          const std::string at = "node " + std::to_string(node) +
                                 " lookup(" + std::to_string(arr) + ", " +
                                 std::to_string(src) + ", " +
                                 std::to_string(dst) + ")";
          const auto hit = table.lookup(arr, src, dst);
          const TftEntry* want = ref.lookup(arr, src, dst);
          ASSERT_EQ(hit == nullptr, want == nullptr) << at;
          if (want == nullptr) continue;
          const TftEntry* got = hit;
          ASSERT_EQ(entry_diff(*got, *want), "") << at;
          for (const std::uint32_t h :
               {0u, 0x55555555u, 0x80000000u, 0xffffffffu,
                hash_mix(arr * 31 + dst)}) {
            const auto& pick = reference::TimeFlowTable::select_action(*want, h);
            ASSERT_EQ(hops_diff(hit.select(h), pick), "")
                << at << " at hash " << h;
          }
        }
      }
    }
  }
}

TEST(TftInstallOracle, EveryTransactionPathInstallsWhatTheReferenceHolds) {
  NetworkConfig cfg;
  cfg.num_tors = kTors;
  cfg.calendar_mode = true;
  cfg.seed = 5;
  const optics::Schedule sched = rotor();
  auto net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  auto ctl = std::make_unique<Controller>(*net);
  auto& sim = net->sim();
  Mirror mirror;
  auto set_latency = [&](SimTime lat) {
    SouthboundConfig sb;
    sb.latency = lat;
    ctl->southbound().configure(sb);
  };

  // 1. Ideal channel: each deploy commits and installs inline, the second
  // merging its overlay into filled tables (VLB's first hops are
  // source-specific multipath entries).
  const auto opera = routing::opera(sched);
  const auto vlb = routing::vlb(sched);
  ASSERT_TRUE(ctl->deploy_routing(opera, LookupMode::PerHop,
                                  MultipathMode::PerPacket, 0));
  mirror.install(opera, LookupMode::PerHop, 0, ctl->committed_epoch());
  ASSERT_TRUE(ctl->deploy_routing(vlb, LookupMode::PerHop,
                                  MultipathMode::PerPacket, 1));
  mirror.install(vlb, LookupMode::PerHop, 1, ctl->committed_epoch());
  ASSERT_EQ(ctl->committed_epoch(), 2u);
  {
    SCOPED_TRACE("ideal-channel deploy");
    expect_installed(*net, mirror);
  }

  // 2. A slow controller: the commit is asynchronous, so every ToR applies
  // it at one slice boundary.
  net->start();
  ctl->set_deploy_delay(30_us);
  const auto ucmp = routing::ucmp(sched);
  sim.schedule_at(1_ms, [&]() {
    ASSERT_TRUE(ctl->deploy_routing(ucmp, LookupMode::SourceRouting,
                                    MultipathMode::PerFlow, 2));
  });
  sim.run_until(1_ms + 31_us);
  ASSERT_EQ(ctl->committed_epoch(), 3u);
  ASSERT_EQ(net->tor(0).tft().size(), mirror.tables[0].size())
      << "applied before the activation boundary";
  sim.run_until(2_ms);
  ctl->set_deploy_delay(SimTime::zero());
  mirror.install(ucmp, LookupMode::SourceRouting, 2, 3);
  {
    SCOPED_TRACE("deploy_delay commit at a slice boundary");
    expect_installed(*net, mirror);
  }

  // 3. Scatter mode: no fencing, and every southbound message arrives
  // twice, so each ToR applies the same install twice.
  ctl->set_fencing(false);
  set_latency(10_us);
  ctl->southbound().set_node_dup(kInvalidNode, 1.0);
  const auto direct = routing::direct_to(sched);
  sim.schedule_at(2_ms + 500_us, [&]() {
    ASSERT_TRUE(ctl->deploy_routing(direct, LookupMode::PerHop,
                                    MultipathMode::None, 3));
  });
  sim.run_until(3_ms + 500_us);
  ASSERT_GE(ctl->southbound().msgs_duped(), kTors);
  ctl->southbound().set_node_dup(kInvalidNode, 0.0);
  ctl->set_fencing(true);
  mirror.install(direct, LookupMode::PerHop, 3, 4);
  {
    SCOPED_TRACE("scatter mode with duplicated installs");
    expect_installed(*net, mirror);
  }

  // 4. The commit to ToR 0 is lost and the controller crashes; restart()
  // completes the epoch on the straggler.
  sim.schedule_at(4_ms, [&]() {
    ASSERT_TRUE(ctl->deploy_routing(opera, LookupMode::SourceRouting,
                                    MultipathMode::PerPacket, 4));
  });
  sim.schedule_at(4_ms + 15_us,
                  [&]() { ctl->southbound().set_node_loss(0, 1.0); });
  sim.schedule_at(4_ms + 50_us, [&]() {
    ASSERT_EQ(ctl->committed_epoch(), 5u);
    ASSERT_EQ(ctl->node_committed_epoch(0), 4u);
    ctl->crash();
  });
  sim.schedule_at(4_ms + 60_us,
                  [&]() { ctl->southbound().set_node_loss(0, 0.0); });
  sim.schedule_at(4_ms + 100_us, [&]() { ctl->restart(); });
  sim.run_until(5_ms);
  ASSERT_EQ(ctl->node_committed_epoch(0), 5u);
  mirror.install(opera, LookupMode::SourceRouting, 4, 5);
  {
    SCOPED_TRACE("restart completes a partial commit");
    expect_installed(*net, mirror);
  }

  // 5. Failure recovery replaces its overlay: each recovery clears
  // kOverlayPriority (1, VLB's above) and installs the reroute there.
  std::vector<Path> overlay;
  services::FailureRecovery recovery(
      *net, *ctl,
      [&](const optics::Schedule& s, PathSink sink) {
        overlay = routing::direct_to(s);
        return routing::direct_to(s, sink);
      },
      /*scrub=*/SimTime::zero());
  recovery.start();
  net->optical().set_port_failed(0, 0, true);
  sim.run_until(10_ms);
  ASSERT_EQ(recovery.recoveries(), 1);
  mirror.install(overlay, LookupMode::PerHop, 1, ctl->committed_epoch(), 1);
  {
    SCOPED_TRACE("failure recovery installs its overlay");
    expect_installed(*net, mirror);
  }
  net->optical().set_port_failed(0, 0, false);
  sim.run_until(15_ms);
  ASSERT_EQ(recovery.recoveries(), 2);
  mirror.install(overlay, LookupMode::PerHop, 1, ctl->committed_epoch(), 1);
  {
    SCOPED_TRACE("failure recovery replaces its overlay");
    expect_installed(*net, mirror);
  }
}

}  // namespace
}  // namespace oo::core
