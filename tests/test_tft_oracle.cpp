// Differential oracles for the time-flow table and the routing compile:
// core::TimeFlowTable and core::compile_routing against the references in
// tft_reference.h, on seeded edit scripts and on the paths of every routing
// scheme.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <string>

#include "common/rng.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "tft_reference.h"
#include "topo/jupiter.h"
#include "topo/round_robin.h"

namespace oo::core {
namespace {

using namespace oo::literals;

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
    const std::string at = " of action " + std::to_string(i);
    if (std::bit_cast<std::uint64_t>(x.weight) !=
        std::bit_cast<std::uint64_t>(y.weight)) {
      return "weight" + at;
    }
    if (x.hops.size() != y.hops.size()) return "hop count" + at;
    for (std::size_t h = 0; h < x.hops.size(); ++h) {
      if (x.hops[h].egress != y.hops[h].egress ||
          x.hops[h].dep_slice != y.hops[h].dep_slice) {
        return "hop " + std::to_string(h) + at;
      }
    }
  }
  return "";
}

// ---- TimeFlowTable vs the per-level hash-map reference --------------------

class TftOracle : public ::testing::TestWithParam<int> {};

TEST_P(TftOracle, MatchesReferenceUnderRandomScripts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto slices = static_cast<SliceId>(1 + rng.uniform(8));
  const auto nodes = static_cast<NodeId>(2 + rng.uniform(10));
  TimeFlowTable table;
  reference::TimeFlowTable ref;
  std::vector<TftMatch> added;

  auto pick_match = [&]() {
    TftMatch m;
    m.arr_slice = rng.uniform01() < 0.3
                      ? kAnySlice
                      : static_cast<SliceId>(rng.uniform(
                            static_cast<std::uint32_t>(slices)));
    m.src = rng.uniform01() < 0.5 ? kInvalidNode
                                  : static_cast<NodeId>(rng.uniform(
                                        static_cast<std::uint32_t>(nodes)));
    m.dst =
        static_cast<NodeId>(rng.uniform(static_cast<std::uint32_t>(nodes)));
    return m;
  };
  auto make_entry = [&]() {
    TftEntry e;
    e.match = pick_match();
    e.priority = static_cast<int>(rng.uniform(4));
    e.epoch = rng.uniform(100);
    const int n_actions = 1 + static_cast<int>(rng.uniform(3));
    for (int a = 0; a < n_actions; ++a) {
      TftAction action;
      action.weight = 0.1 + rng.uniform01() * 3.0;
      const int n_hops = 1 + static_cast<int>(rng.uniform(3));
      for (int h = 0; h < n_hops; ++h) {
        action.hops.push_back(net::SourceHop{
            static_cast<PortId>(rng.uniform(4)),
            rng.uniform01() < 0.2
                ? kAnySlice
                : static_cast<SliceId>(
                      rng.uniform(static_cast<std::uint32_t>(slices)))});
      }
      e.actions.push_back(std::move(action));
    }
    return e;
  };
  // Compares one lookup, and the action each side's select_action picks
  // for a few hashes, between the table and the reference.
  auto check = [&](SliceId arr, NodeId src, NodeId dst) {
    const TftEntry* got = table.lookup(arr, src, dst);
    const TftEntry* want = ref.lookup(arr, src, dst);
    ASSERT_EQ(got == nullptr, want == nullptr)
        << "lookup(" << arr << ", " << src << ", " << dst << ")";
    if (got == nullptr) return;
    ASSERT_EQ(entry_diff(*got, *want), "")
        << "lookup(" << arr << ", " << src << ", " << dst << ")";
    for (const std::uint32_t h :
         {0u, 0x55555555u, 0x80000000u, 0xffffffffu, hash_mix(arr * 31 + dst)}) {
      ASSERT_EQ(&TimeFlowTable::select_action(*got, h) - got->actions.data(),
                &reference::TimeFlowTable::select_action(*want, h) -
                    want->actions.data())
          << "select_action at hash " << h;
    }
  };
  // Every query from out-of-range below (kInvalidNode, kAnySlice and one
  // further) to out-of-range above.
  auto check_all = [&]() {
    for (SliceId arr = -3; arr <= slices + 1; ++arr) {
      for (NodeId src = -2; src <= nodes; ++src) {
        for (NodeId dst = -2; dst <= nodes; ++dst) check(arr, src, dst);
      }
    }
  };

  for (int step = 0; step < 1500; ++step) {
    const double x = rng.uniform01();
    if (x < 0.6) {
      auto e = make_entry();
      added.push_back(e.match);
      ref.add(e);
      table.add(std::move(e));
    } else if (x < 0.95) {
      const TftMatch m =
          !added.empty() && rng.uniform01() < 0.7
              ? added[rng.uniform(static_cast<std::uint32_t>(added.size()))]
              : pick_match();
      ref.remove(m);
      table.remove(m);
    } else if (x < 0.995) {
      const int p = static_cast<int>(rng.uniform(4));
      ref.remove_priority(p);
      table.remove_priority(p);
    } else {
      ref.clear();
      table.clear();
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    for (int q = 0; q < 32; ++q) {
      check(static_cast<SliceId>(rng.uniform(
                static_cast<std::uint32_t>(slices + 5))) - 3,
            static_cast<NodeId>(rng.uniform(
                static_cast<std::uint32_t>(nodes + 3))) - 2,
            static_cast<NodeId>(rng.uniform(
                static_cast<std::uint32_t>(nodes + 3))) - 2);
      if (HasFatalFailure()) return;
    }
    if (step % 100 == 99) {
      check_all();
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TftOracle, ::testing::Range(1, 9));

// ---- compile_routing vs the std::map reference ---------------------------

optics::Schedule rotor(int n, int uplinks) {
  optics::Schedule s(n, uplinks, topo::round_robin_period(n), 100_us);
  for (const auto& c : topo::round_robin_1d(n, uplinks)) s.add_circuit(c);
  return s;
}

optics::Schedule mesh(int n) {
  optics::Schedule s(n, 3, 1, SimTime::seconds(3600));
  for (const auto& c : topo::jupiter(topo::TrafficMatrix{}, n, 3)) {
    s.add_circuit(c);
  }
  return s;
}

TEST(CompileOracle, MatchesReferenceForEveryScheme) {
  using PathsOf = std::function<std::vector<Path>(int n)>;
  const std::vector<std::pair<std::string, PathsOf>> schemes = {
      {"direct_to", [](int n) { return routing::direct_to(rotor(n, 2)); }},
      {"direct_to_expanded",
       [](int n) { return routing::direct_to_expanded(rotor(n, 1)); }},
      {"opera", [](int n) { return routing::opera(rotor(n, 2)); }},
      {"vlb", [](int n) { return routing::vlb(rotor(n, 2)); }},
      {"hoho", [](int n) { return routing::hoho(rotor(n, 1)); }},
      {"ucmp", [](int n) { return routing::ucmp(rotor(n, 2)); }},
      {"ecmp", [](int n) { return routing::ecmp(mesh(n)); }},
      {"wcmp", [](int n) { return routing::wcmp(mesh(n)); }},
      {"ksp", [](int n) { return routing::ksp(mesh(n), 3); }},
      {"electrical_default",
       [](int n) { return routing::electrical_default(n); }},
  };
  constexpr int kPriority = 3;
  for (const auto& [name, paths_of] : schemes) {
    for (const int n : {8, 16}) {
      const auto paths = paths_of(n);
      ASSERT_FALSE(paths.empty()) << name;
      for (const auto lookup :
           {LookupMode::PerHop, LookupMode::SourceRouting}) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     (lookup == LookupMode::PerHop ? " per-hop"
                                                   : " source-routed"));
        const auto got = compile_routing(paths, lookup, kPriority, n);
        const auto want =
            reference::compile_routing(paths, lookup, kPriority, n);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t node = 0; node < got.size(); ++node) {
          ASSERT_EQ(got[node].size(), want[node].size()) << "node " << node;
          for (std::size_t i = 0; i < got[node].size(); ++i) {
            ASSERT_EQ(entry_diff(got[node][i], want[node][i]), "")
                << "node " << node << " entry " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace oo::core
