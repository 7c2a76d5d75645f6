// Differential oracles for the time-flow table and the routing compile:
// core::TimeFlowTable and core::compile_routing against the references in
// tft_reference.h, on seeded edit scripts and on the paths of every routing
// scheme; and the streamed producers, compile and deploy against the vector
// forms.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "telemetry/flight_recorder.h"
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

// A ToR's table takes a new epoch with every deploy, so a palette of
// (priority, epoch) stamps that only grew would outrun its 16-bit index
// after 65,535 deploys. Over 72,000 adds, each at an epoch of its own and at
// one of three priorities, with remove_priority, set_epoch and installs of
// tables stamped otherwise in between, every entry stays exact and the
// palette stays within twice the stamps the live entries carry (64 at
// least).
TEST(TimeFlowTable, StampsSurviveManyDeploys) {
  constexpr SliceId kSlices = 8;
  constexpr NodeId kNodes = 40;
  Rng rng(30);
  TimeFlowTable table;
  reference::TimeFlowTable ref;
  std::set<std::tuple<SliceId, NodeId, NodeId>> matches;  // ever added
  std::uint64_t epoch = 0;
  std::size_t peak_stamps = 0;

  const auto pick_match = [&]() {
    TftMatch m{static_cast<SliceId>(rng.uniform(kSlices + 1)) - 1,
               kInvalidNode, static_cast<NodeId>(rng.uniform(kNodes))};
    if (rng.uniform01() < 0.05) m.src = static_cast<NodeId>(rng.uniform(kNodes));
    return m;
  };
  const auto make_entry = [&](const TftMatch& m, int priority,
                              std::uint64_t at) {
    TftEntry e{m, {}, priority, at};
    const int actions = rng.uniform01() < 0.1 ? 2 : 1;
    for (int a = 0; a < actions; ++a) {
      e.actions.push_back(
          {{net::SourceHop{static_cast<PortId>(rng.uniform(4)),
                           static_cast<SliceId>(rng.uniform(kSlices))}},
           0.5 + rng.uniform01()});
    }
    return e;
  };
  const auto add = [&](TimeFlowTable& t, const TftEntry& e) {
    matches.emplace(e.match.arr_slice, e.match.src, e.match.dst);
    ref.add(e);
    t.add(e);
  };
  const auto check = [&](const std::string& after) {
    ASSERT_EQ(table.size(), ref.size()) << after;
    std::set<std::pair<int, std::uint64_t>> live;
    for (const TftEntry& e : table.entries()) {
      const TftEntry* want =
          ref.lookup(e.match.arr_slice, e.match.src, e.match.dst);
      ASSERT_NE(want, nullptr) << after;
      ASSERT_EQ(entry_diff(e, *want), "") << after;
      live.emplace(e.priority, e.epoch);
    }
    peak_stamps = std::max(peak_stamps, table.stamps());
    ASSERT_LE(table.stamps(), std::max<std::size_t>(64, 2 * live.size()))
        << after;
  };
  // A table of 30 fresh matches at priorities 0 and 2, one epoch each.
  const auto deploy = [&]() {
    TimeFlowTable from;
    std::set<std::tuple<SliceId, NodeId, NodeId>> taken;
    const std::uint64_t at[] = {++epoch, ++epoch};
    while (taken.size() < 30) {
      const TftMatch m = pick_match();
      if (!taken.emplace(m.arr_slice, m.src, m.dst).second) continue;
      const int side = static_cast<int>(rng.uniform(2));
      add(from, make_entry(m, 2 * side, at[side]));
    }
    return from;
  };

  table.install(deploy());  // into an empty table: a copy
  check("the first install");
  for (int i = 1; i <= 72'000; ++i) {
    add(table, make_entry(pick_match(), i % 3, ++epoch));
    if (i % 5'000 == 0) {
      ref.remove_priority(i / 5'000 % 3);
      table.remove_priority(i / 5'000 % 3);
    }
    if (i % 7'000 == 0) table.install(deploy());
    if (i % 18'000 == 0) {
      ++epoch;
      for (const auto& [arr, src, dst] : matches) {
        const TftEntry* e = ref.lookup(arr, src, dst);
        if (e == nullptr || !(e->match == TftMatch{arr, src, dst})) continue;
        TftEntry restamped = *e;
        restamped.epoch = epoch;
        ref.add(restamped);
      }
      table.set_epoch(epoch);
    }
    if (i % 1'000 == 0) {
      check("add " + std::to_string(i));
      if (HasFatalFailure()) return;
    }
  }
  table.compact();
  check("compact");
  // The palette needed more than an 8-bit index, and the epochs ran past
  // what a 16-bit one could name.
  EXPECT_GT(peak_stamps, 256u);
  EXPECT_GT(epoch, 65'536u);
}

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

// Every routing scheme in both forms, on the fabric the oracles run it on.
struct Scheme {
  std::string name;
  std::function<optics::Schedule(int n)> fabric;
  std::function<std::vector<Path>(const optics::Schedule&)> vector_form;
  std::function<bool(const optics::Schedule&, PathSink)> stream_form;
};

const std::vector<Scheme>& schemes() {
  using S = const optics::Schedule&;
  const auto rotor1 = [](int n) { return rotor(n, 1); };
  const auto rotor2 = [](int n) { return rotor(n, 2); };
  static const std::vector<Scheme> all = {
      {"direct_to", rotor2, [](S s) { return routing::direct_to(s); },
       [](S s, PathSink k) { return routing::direct_to(s, k); }},
      {"direct_to_expanded", rotor1,
       [](S s) { return routing::direct_to_expanded(s); },
       [](S s, PathSink k) { return routing::direct_to_expanded(s, k); }},
      {"opera", rotor2, [](S s) { return routing::opera(s); },
       [](S s, PathSink k) { return routing::opera(s, k); }},
      {"vlb", rotor2, [](S s) { return routing::vlb(s); },
       [](S s, PathSink k) { return routing::vlb(s, k); }},
      {"hoho", rotor1, [](S s) { return routing::hoho(s); },
       [](S s, PathSink k) { return routing::hoho(s, k); }},
      {"ucmp", rotor2, [](S s) { return routing::ucmp(s); },
       [](S s, PathSink k) { return routing::ucmp(s, k); }},
      {"ecmp", mesh, [](S s) { return routing::ecmp(s); },
       [](S s, PathSink k) { return routing::ecmp(s, k); }},
      {"wcmp", mesh, [](S s) { return routing::wcmp(s); },
       [](S s, PathSink k) { return routing::wcmp(s, k); }},
      {"ksp", mesh, [](S s) { return routing::ksp(s, 3); },
       [](S s, PathSink k) { return routing::ksp(s, k, 3); }},
      {"electrical_default", rotor1,
       [](S s) { return routing::electrical_default(s.num_nodes()); },
       [](S s, PathSink k) {
         return routing::electrical_default(s.num_nodes(), k);
       }},
  };
  return all;
}

// The first difference between two per-node entry sets ("" when equal).
std::string entries_diff(const std::vector<std::vector<TftEntry>>& got,
                         const std::vector<std::vector<TftEntry>>& want) {
  if (got.size() != want.size()) return "node count";
  for (std::size_t node = 0; node < got.size(); ++node) {
    const std::string at = "node " + std::to_string(node);
    if (got[node].size() != want[node].size()) return "entry count at " + at;
    for (std::size_t i = 0; i < got[node].size(); ++i) {
      const std::string d = entry_diff(got[node][i], want[node][i]);
      if (!d.empty()) return d + " of entry " + std::to_string(i) + " at " + at;
    }
  }
  return "";
}

TEST(CompileOracle, MatchesReferenceForEveryScheme) {
  constexpr int kPriority = 3;
  for (const auto& scheme : schemes()) {
    for (const int n : {8, 16}) {
      const auto paths = scheme.vector_form(scheme.fabric(n));
      ASSERT_FALSE(paths.empty()) << scheme.name;
      for (const auto lookup :
           {LookupMode::PerHop, LookupMode::SourceRouting}) {
        SCOPED_TRACE(scheme.name + " n=" + std::to_string(n) +
                     (lookup == LookupMode::PerHop ? " per-hop"
                                                   : " source-routed"));
        EXPECT_EQ(
            entries_diff(
                compile_routing(stream_of(paths), lookup, kPriority, n),
                reference::compile_routing(paths, lookup, kPriority, n)),
            "");
      }
    }
  }
}

// The hybrid rotor's stream as make_rotornet(..., hybrid_electrical=true)
// builds it at its default rates: the expanded direct paths, then a
// per-slice electrical alternative at weight 0.1 for every (node,
// destination, slice). Each entry gains its second action after the rest
// of its table was written.
void hybrid_rotor(const optics::Schedule& sched, PathSink sink) {
  if (!routing::direct_to_expanded(sched, sink)) return;
  Path ep;
  ep.weight = 10e9 / 100e9;
  ep.hops.resize(1);
  for (NodeId n = 0; n < sched.num_nodes(); ++n) {
    for (NodeId d = 0; d < sched.num_nodes(); ++d) {
      if (n == d) continue;
      for (SliceId s = 0; s < sched.period(); ++s) {
        ep.dst = d;
        ep.start_slice = s;
        ep.hops[0] = PathHop{n, kElectricalEgress, kAnySlice};
        if (!sink(ep)) return;
      }
    }
  }
}

// Paths whose hops fall outside a table cell (egress above 0x7FFF - 2 or
// below -2, departure above 0xFFFF - 1), beside hops that fit. Egress
// 0x7FFE at kAnySlice would read as the cell kPooled | 0, so it comes
// first: node 0's first pooled entry, merged twice, then given a second
// action. Departure 0xFFFF would read as the cell of the next egress at
// kAnySlice, and it merges into exactly that cell.
std::vector<Path> outside_a_cell(int n) {
  auto path = [](NodeId src, NodeId dst, SliceId start,
                 std::vector<PathHop> hops, double weight) {
    return Path{src, dst, start, std::move(hops), weight};
  };
  return {
      path(kInvalidNode, 1, 0, {{0, 0x7FFE, kAnySlice}}, 0.5),
      path(kInvalidNode, 1, 0, {{0, 0x7FFE, kAnySlice}}, 0.25),
      path(kInvalidNode, 1, 0, {{0, 1, 0}}, 1.5),
      path(kInvalidNode, 2, kAnySlice, {{0, 1, kAnySlice}}, 1.0),
      path(kInvalidNode, 2, kAnySlice, {{0, 0, 0xFFFF}}, 2.0),
      path(kInvalidNode, 3, 1, {{0, 2, 1}}, 0.5),
      path(kInvalidNode, 3, 1, {{0, 2, 1}}, 0.75),
      path(0, n - 1, 2, {{0, -3, 2}, {1, 0x7FFF, 0xFFFF}, {2, 1, 3}}, 1.0),
      path(0, n - 1, 2, {{0, -3, 2}, {1, 0x7FFF, 0xFFFF}, {2, 1, 3}}, 2.0),
      path(0, n - 1, 2, {{0, 1, 2}, {1, 0x7FFF, 0xFFFF}, {2, 1, 3}}, 0.5),
      path(kInvalidNode, 1, 0, {{0, 0x7FFE, kAnySlice}}, 0.125),
  };
}

TEST(CompileOracle, MatchesReferenceForMergesNoSchemeMakesAlone) {
  constexpr int kPriority = 3;
  for (const int n : {8, 16}) {
    const auto sched = rotor(n, 1);
    const std::vector<std::pair<std::string, std::vector<Path>>> streams = {
        {"hybrid rotor",
         collect([&](PathSink sink) { hybrid_rotor(sched, sink); })},
        {"hops outside a cell", outside_a_cell(n)},
    };
    for (const auto& [name, paths] : streams) {
      for (const auto lookup :
           {LookupMode::PerHop, LookupMode::SourceRouting}) {
        SCOPED_TRACE(name + " n=" + std::to_string(n) +
                     (lookup == LookupMode::PerHop ? " per-hop"
                                                   : " source-routed"));
        EXPECT_EQ(
            entries_diff(
                compile_routing(stream_of(paths), lookup, kPriority, n),
                reference::compile_routing(paths, lookup, kPriority, n)),
            "");
      }
    }
  }
}

// ---- streamed producers and the one-pass compile and deploy ---------------

// The first difference between two paths ("" when they are the same),
// weights compared bit for bit.
std::string path_diff(const Path& a, const Path& b) {
  if (a.src != b.src) return "src";
  if (a.dst != b.dst) return "dst";
  if (a.start_slice != b.start_slice) return "start_slice";
  if (std::bit_cast<std::uint64_t>(a.weight) !=
      std::bit_cast<std::uint64_t>(b.weight)) {
    return "weight";
  }
  if (a.hops.size() != b.hops.size()) return "hop count";
  for (std::size_t h = 0; h < a.hops.size(); ++h) {
    if (a.hops[h].node != b.hops[h].node ||
        a.hops[h].egress != b.hops[h].egress ||
        a.hops[h].dep_slice != b.hops[h].dep_slice) {
      return "hop " + std::to_string(h);
    }
  }
  return "";
}

TEST(StreamOracle, ProducersStreamTheirVectorFormAndStopOnFalse) {
  for (const auto& scheme : schemes()) {
    for (const int n : {8, 16}) {
      SCOPED_TRACE(scheme.name + " n=" + std::to_string(n));
      const auto sched = scheme.fabric(n);
      const auto want = scheme.vector_form(sched);
      ASSERT_FALSE(want.empty());
      std::size_t i = 0;
      EXPECT_TRUE(scheme.stream_form(sched, [&](const Path& p) {
        if (i >= want.size()) return false;
        EXPECT_EQ(path_diff(p, want[i]), "") << "path " << i;
        ++i;
        return true;
      }));
      EXPECT_EQ(i, want.size());
      // A false return is the producer's last call.
      for (const std::size_t k : {std::size_t{0}, want.size() / 2,
                                  want.size() - 1}) {
        std::size_t calls = 0;
        EXPECT_FALSE(scheme.stream_form(
            sched, [&](const Path&) { return calls++ < k; }));
        EXPECT_EQ(calls, k + 1) << "stopped at path " << k;
      }
    }
  }
}

// Hands each of a producer's paths to `sink` through one reused Path that
// is overwritten with poison after every call, so a consumer that kept a
// reference into it would read the poison, not the path.
void poisoned(const Scheme& scheme, const optics::Schedule& sched,
              PathSink sink) {
  Path reused;
  reused.hops.reserve(64);  // never reallocates: the poison lands in place
  scheme.stream_form(sched, [&](const Path& p) {
    reused = p;
    const bool more = sink(reused);
    reused.src = reused.dst = reused.start_slice = -7;
    reused.weight = -7.0;
    for (auto& h : reused.hops) h = PathHop{-7, -7, -7};
    return more;
  });
}

TEST(StreamOracle, StreamedCompileMatchesReferenceForEveryScheme) {
  constexpr int kPriority = 3;
  for (const auto& scheme : schemes()) {
    for (const int n : {8, 16}) {
      const auto sched = scheme.fabric(n);
      const auto paths = scheme.vector_form(sched);
      for (const auto lookup :
           {LookupMode::PerHop, LookupMode::SourceRouting}) {
        SCOPED_TRACE(scheme.name + " n=" + std::to_string(n) +
                     (lookup == LookupMode::PerHop ? " per-hop"
                                                   : " source-routed"));
        const auto got = compile_routing(
            [&](PathSink sink) { poisoned(scheme, sched, sink); }, lookup,
            kPriority, n);
        EXPECT_EQ(entries_diff(got, reference::compile_routing(
                                        paths, lookup, kPriority, n)),
                  "");
      }
    }
  }
}

// What a ToR's table answers for every (arrival slice, source, destination)
// query, wildcards included: the entries it finds, copied.
std::vector<std::optional<TftEntry>> answers(const TimeFlowTable& t, int n,
                                             SliceId period) {
  std::vector<std::optional<TftEntry>> out;
  for (SliceId arr = kAnySlice; arr < period; ++arr) {
    for (NodeId src = kInvalidNode; src < n; ++src) {
      for (NodeId dst = 0; dst < n; ++dst) {
        const TftEntry* e = t.lookup(arr, src, dst);
        out.push_back(e == nullptr ? std::nullopt
                                   : std::optional<TftEntry>(*e));
      }
    }
  }
  return out;
}

TEST(StreamOracle, InvalidPathStopsTheDeployAndInstallsNothing) {
  constexpr int kTors = 16;
  constexpr std::size_t kBad = 1000;  // opera emits 3,600 paths here
  const auto sched = rotor(kTors, 2);
  auto wrong_egress = [](Path& p) { p.hops.back().egress = 7; };
  // Same fabric, same base routing and the same bad routing on two
  // networks: one deploys it as a stream, the other as a vector.
  struct Side {
    telemetry::FlightRecorder rec{256};
    std::unique_ptr<Network> net;
    std::unique_ptr<Controller> ctl;
  };
  auto make_side = [&]() {
    auto side = std::make_unique<Side>();
    NetworkConfig cfg;
    cfg.num_tors = kTors;
    cfg.calendar_mode = true;
    side->net = std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
    side->ctl = std::make_unique<Controller>(*side->net);
    side->net->sim().set_recorder(&side->rec);
    EXPECT_TRUE(side->ctl->deploy_routing(routing::direct_to(sched),
                                          LookupMode::PerHop,
                                          MultipathMode::None));
    return side;
  };
  auto streamed = make_side();
  auto vectored = make_side();
  std::vector<std::vector<std::optional<TftEntry>>> before;
  for (NodeId n = 0; n < kTors; ++n) {
    before.push_back(
        answers(streamed->net->tor(n).tft(), kTors, sched.period()));
  }

  std::size_t emitted = 0;
  const bool ok = streamed->ctl->deploy_routing(
      [&](PathSink sink) {
        Path copy;
        routing::opera(sched, [&](const Path& p) {
          copy = p;
          if (emitted == kBad) wrong_egress(copy);
          ++emitted;
          return sink(copy);
        });
      },
      LookupMode::PerHop, MultipathMode::None, /*priority=*/1);
  auto paths = routing::opera(sched);
  ASSERT_GT(paths.size(), kBad);
  wrong_egress(paths[kBad]);
  EXPECT_FALSE(vectored->ctl->deploy_routing(paths, LookupMode::PerHop,
                                             MultipathMode::None, 1));

  EXPECT_FALSE(ok);
  EXPECT_EQ(emitted, kBad + 1) << "the producer ran past the invalid path";
  EXPECT_NE(streamed->ctl->last_error(), "");
  EXPECT_EQ(streamed->ctl->last_error(), vectored->ctl->last_error());
  EXPECT_EQ(streamed->rec.snapshot(), vectored->rec.snapshot());
  EXPECT_EQ(streamed->net->sim().metrics().csv(),
            vectored->net->sim().metrics().csv());
  EXPECT_EQ(streamed->ctl->committed_epoch(), 1u);
  for (NodeId n = 0; n < kTors; ++n) {
    const auto after =
        answers(streamed->net->tor(n).tft(), kTors, sched.period());
    ASSERT_EQ(after.size(), before[n].size());
    for (std::size_t q = 0; q < after.size(); ++q) {
      ASSERT_EQ(after[q].has_value(), before[n][q].has_value())
          << "node " << n << " query " << q;
      if (after[q]) {
        ASSERT_EQ(entry_diff(*after[q], *before[n][q]), "")
            << "node " << n << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace oo::core
