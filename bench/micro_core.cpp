// Microbenchmarks (google-benchmark) for the hot data-plane and
// control-plane primitives: time-flow table lookup and the heap a table
// holds per grid slot, calendar-queue operations and the heap a calendar
// port holds per packet, EQO updates, event-engine throughput and the key
// buffers a queue retains, routing computation for a full rotor cycle, the
// opera routing deploy at 64 and 128 ToRs, and one packet flow's life in a
// transfer pool.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "core/calendar_queue.h"
#include "core/controller.h"
#include "core/eqo.h"
#include "core/time_flow_table.h"
#include "eventsim/simulator.h"
#include "routing/ta_routing.h"
#include "routing/time_expanded.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "workload/transfer_pool.h"

// Every heap allocation this binary makes goes through here, so a bench
// can report allocations per item.
namespace {
std::atomic<std::int64_t> g_allocs{0};
}  // namespace

// GCC pairs these by name once inlined and would flag the malloc/free
// inside them as a mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

using namespace oo;
using namespace oo::literals;

namespace {

core::TimeFlowTable make_table(int slices, int dsts) {
  core::TimeFlowTable t;
  for (SliceId s = 0; s < slices; ++s) {
    for (NodeId d = 0; d < dsts; ++d) {
      core::TftEntry e;
      e.match = core::TftMatch{s, kInvalidNode, d};
      e.actions.push_back(
          core::TftAction{{net::SourceHop{d % 6, (s + d) % slices}}, 1.0});
      t.add(std::move(e));
    }
  }
  return t;
}

// The first hop of the action a lookup selects, as TorSwitch::route reads
// it; the lookup benches time this whole step.
net::SourceHop first_hop(const core::TimeFlowTable& t, SliceId arr,
                         NodeId src, NodeId dst) {
  const auto hit = t.lookup(arr, src, dst);
  return hit == nullptr ? net::SourceHop{} : hit.select(0).first;
}

void BM_TftLookupHit(benchmark::State& state) {
  const auto t = make_table(107, 108);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_hop(t, static_cast<SliceId>(i % 107),
                                       static_cast<NodeId>(i % 50),
                                       static_cast<NodeId>(i % 108)));
    ++i;
  }
}
BENCHMARK(BM_TftLookupHit);

void BM_TftLookupWildcardFallback(benchmark::State& state) {
  // Only fully wildcard entries: every lookup walks all 4 specificity keys.
  core::TimeFlowTable t;
  for (NodeId d = 0; d < 108; ++d) {
    core::TftEntry e;
    e.match = core::TftMatch{kAnySlice, kInvalidNode, d};
    e.actions.push_back(core::TftAction{{net::SourceHop{0, kAnySlice}}, 1.0});
    t.add(std::move(e));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(first_hop(t, static_cast<SliceId>(i % 107), 3,
                                       static_cast<NodeId>(i % 108)));
    ++i;
  }
}
BENCHMARK(BM_TftLookupWildcardFallback);

// opera64's tables: each of 64 ToRs holds a (slice, *, dst) entry for each
// of 63 slices and 63 other destinations. Every lookup is at a random ToR,
// as fabric hops arrive, so most miss the cache like the run's do.
// `src_specific` adds a (slice, tor, dst) entry for each of them, as VLB's
// first hops install; the queries then ask (slice, tor, dst) and hit the
// source-specific level.
struct Opera64Tables {
  static constexpr int kTors = 64;
  static constexpr SliceId kSlices = 63;

  explicit Opera64Tables(bool src_specific) : tables(kTors) {
    for (NodeId tor = 0; tor < kTors; ++tor) {
      for (SliceId s = 0; s < kSlices; ++s) {
        for (NodeId d = 0; d < kTors; ++d) {
          if (d == tor) continue;
          core::TftEntry e;
          e.match = core::TftMatch{s, kInvalidNode, d};
          e.actions.push_back(core::TftAction{{net::SourceHop{d % 2, s}}, 1.0});
          if (src_specific) {
            core::TftEntry first = e;
            first.match.src = tor;
            first.actions.front().hops.front().dep_slice = (s + d) % kSlices;
            tables[static_cast<std::size_t>(tor)].add(std::move(first));
          }
          tables[static_cast<std::size_t>(tor)].add(std::move(e));
        }
      }
    }
    Rng rng(1);
    queries.resize(1 << 16);
    for (auto& q : queries) {
      q.tor = static_cast<NodeId>(rng.uniform(kTors));
      q.arr = static_cast<SliceId>(rng.uniform(kSlices));
      q.src = src_specific ? q.tor : static_cast<NodeId>(rng.uniform(kTors));
      q.dst = static_cast<NodeId>(
          (q.tor + 1 + static_cast<NodeId>(rng.uniform(kTors - 1))) % kTors);
    }
  }

  struct Query {
    NodeId tor;
    SliceId arr;
    NodeId src;
    NodeId dst;
  };
  std::vector<core::TimeFlowTable> tables;
  std::vector<Query> queries;
};

void run_lookups(benchmark::State& state, const Opera64Tables& t) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& q = t.queries[i];
    benchmark::DoNotOptimize(first_hop(
        t.tables[static_cast<std::size_t>(q.tor)], q.arr, q.src, q.dst));
    i = (i + 1) % t.queries.size();
  }
}

void BM_TftLookupOpera64Tables(benchmark::State& state) {
  run_lookups(state, Opera64Tables(/*src_specific=*/false));
}
BENCHMARK(BM_TftLookupOpera64Tables);

void BM_TftLookupSourceSpecific(benchmark::State& state) {
  run_lookups(state, Opera64Tables(/*src_specific=*/true));
}
BENCHMARK(BM_TftLookupSourceSpecific);

// Heap bytes the Opera64Tables tables hold per grid slot (64 tables of 63
// rows by 64 destinations), as malloc counts them: the cells, their side
// arrays and everything else the tables allocate. The fixture's queries
// are left out.
void BM_TftTableBytes(benchmark::State& state) {
  constexpr double kSlots = Opera64Tables::kTors * Opera64Tables::kSlices *
                            Opera64Tables::kTors;
  double per_slot = 0;
  for (auto _ : state) {
    const std::size_t before = mallinfo2().uordblks;
    const Opera64Tables t(/*src_specific=*/false);
    const std::size_t queries = t.queries.capacity() * sizeof(t.queries[0]);
    per_slot = static_cast<double>(mallinfo2().uordblks - before - queries) /
               kSlots;
    benchmark::DoNotOptimize(t.tables.data());
  }
  state.counters["heap_bytes_per_slot"] = per_slot;
}
BENCHMARK(BM_TftTableBytes)->Unit(benchmark::kMillisecond);

// A rotor network of `tors` ToRs and 2 uplinks with its controller, as
// the opera presets build it.
struct OperaNet {
  explicit OperaNet(int tors)
      : net(config(tors), schedule(tors), optics::ocs_emulated()), ctl(net) {}
  static core::NetworkConfig config(int tors) {
    core::NetworkConfig cfg;
    cfg.num_tors = tors;
    cfg.calendar_mode = true;
    return cfg;
  }
  static optics::Schedule schedule(int tors) {
    optics::Schedule s(tors, 2, topo::round_robin_period(tors), 100_us);
    for (const auto& c : topo::round_robin_1d(tors, 2)) s.add_circuit(c);
    return s;
  }

  core::Network net;
  core::Controller ctl;
};

// opera's routing at state.range(0) ToRs, streamed from the producer into
// deploy_routing as the opera presets set up: generate, validate, compile
// (254,016 entries at 64 ToRs, 2,064,512 at 128) and install. Each
// iteration starts from empty tables.
void BM_DeployOperaRouting(benchmark::State& state) {
  OperaNet o(static_cast<int>(state.range(0)));
  const optics::Schedule& sched = o.net.schedule();
  for (auto _ : state) {
    state.PauseTiming();
    o.ctl.clear_routing();
    state.ResumeTiming();
    benchmark::DoNotOptimize(o.ctl.deploy_routing(
        [&](core::PathSink sink) { routing::opera(sched, sink); },
        core::LookupMode::PerHop, core::MultipathMode::None));
  }
  std::size_t entries = 0;
  for (NodeId n = 0; n < o.net.num_tors(); ++n) {
    entries += o.net.tor(n).tft().size();
  }
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_DeployOperaRouting)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// The 64-ToR deploy through the vector form of routing::opera, which holds
// all 254,016 paths before the deploy reads them. Against
// BM_DeployOperaRouting/64, the row adds the vector.
void BM_GenerateDeployOperaVector(benchmark::State& state) {
  OperaNet o(64);
  for (auto _ : state) {
    state.PauseTiming();
    o.ctl.clear_routing();
    state.ResumeTiming();
    benchmark::DoNotOptimize(o.ctl.deploy_routing(
        routing::opera(o.net.schedule()), core::LookupMode::PerHop,
        core::MultipathMode::None));
  }
}
BENCHMARK(BM_GenerateDeployOperaVector)->Unit(benchmark::kMillisecond);

void BM_CalendarEnqueueDequeue(benchmark::State& state) {
  core::CalendarQueuePort port(static_cast<int>(state.range(0)), 1 << 30);
  std::uint64_t i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.size_bytes = 1500;
    port.try_enqueue(std::move(p),
                     static_cast<int>(i % static_cast<std::uint64_t>(
                                              state.range(0))));
    benchmark::DoNotOptimize(port.dequeue());
    ++i;
  }
}
BENCHMARK(BM_CalendarEnqueueDequeue)->Arg(8)->Arg(107);

void BM_CalendarRotate(benchmark::State& state) {
  core::CalendarQueuePort port(107, 1 << 20);
  for (auto _ : state) {
    port.rotate();
    benchmark::DoNotOptimize(port.active_index());
  }
}
BENCHMARK(BM_CalendarRotate);

// Heap bytes a calendar port holds per queued packet, as malloc counts
// them: a 127-day port (a 128-ToR rotor's period) filled with 17 per-hop
// packets a day, the mean depth of rotor128's non-empty days at its
// horizon. The port's empty days are built before the count starts.
void BM_CalendarPortHolds(benchmark::State& state) {
  constexpr int kDays = 127;
  constexpr int kPerDay = 17;
  double per_packet = 0;
  for (auto _ : state) {
    core::CalendarQueuePort port(kDays, 1 << 30);
    const std::size_t before = mallinfo2().uordblks;
    for (int d = 0; d < kDays; ++d) {
      for (int i = 0; i < kPerDay; ++i) {
        net::Packet p;
        p.size_bytes = 1500;
        port.try_enqueue(std::move(p), d);
      }
    }
    per_packet = static_cast<double>(mallinfo2().uordblks - before) /
                 (kDays * kPerDay);
    benchmark::DoNotOptimize(port.total_packets());
  }
  state.SetItemsProcessed(state.iterations() * kDays * kPerDay);
  state.counters["heap_bytes_per_packet"] = per_packet;
}
BENCHMARK(BM_CalendarPortHolds);

void BM_EqoUpdate(benchmark::State& state) {
  core::QueueOccupancyEstimator eqo(107, 100e9, 50_ns);
  std::int64_t t = 0;
  for (auto _ : state) {
    eqo.on_enqueue(static_cast<int>(t % 107), 1500);
    eqo.drain_window(static_cast<int>(t % 107), SimTime::nanos(t),
                     SimTime::nanos(t + 120));
    t += 120;
  }
}
BENCHMARK(BM_EqoUpdate);

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(SimTime::nanos(i * 10), [&count]() { ++count; });
    }
    s.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventEngine);

// rotor128's queue shape: ~160K far-future timers armed (every waiting
// flow's 5 ms RTO) under a few hundred near-term events, each of which
// cancels one timer and re-arms it 5 ms out, as an advancing ack re-arms
// an RTO. Items are dispatched events.
struct TimerChurn {
  static constexpr std::size_t kTimers = 160'000;
  static constexpr int kNear = 700;

  TimerChurn() {
    timers.reserve(kTimers);
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers.push_back(s.schedule_at(
          5_ms + SimTime::nanos(static_cast<std::int64_t>(i) * 31), []() {},
          "tcp.rto"));
    }
    for (int i = 0; i < kNear; ++i) {
      s.schedule_at(SimTime::nanos(i * 3), [this]() { near(); }, "link");
    }
  }
  void near() {
    sim::EventHandle& t = timers[next];
    t.cancel();
    t = s.schedule_in(5_ms, []() {}, "tcp.rto");
    next = (next + 1) % kTimers;
    s.schedule_in(SimTime::nanos(1000 + static_cast<std::int64_t>(next % 2000)),
                  [this]() { near(); }, "link");
  }

  sim::Simulator s;
  std::vector<sim::EventHandle> timers;
  std::size_t next = 0;
};

// retained_key_bytes is the room the queue's key buffers hold at the end,
// at 24 bytes a key; pending_key_bytes the keys queued then.
void BM_EventTimerChurn(benchmark::State& state) {
  TimerChurn churn;
  std::int64_t events = 0;
  for (auto _ : state) {
    const std::int64_t before = churn.s.events_executed();
    churn.s.run_until(churn.s.now() + 100_us);
    events += churn.s.events_executed() - before;
  }
  state.SetItemsProcessed(events);
  state.counters["retained_key_bytes"] =
      static_cast<double>(churn.s.key_capacity()) * 24;
  state.counters["pending_key_bytes"] =
      static_cast<double>(churn.s.events_pending()) * 24;
}
BENCHMARK(BM_EventTimerChurn);

// One 4 KB packet flow on a 2-ToR electrical network, launched through a
// TransferPool and run through its completion and the reclaim that frees
// its slot. Items are flows; allocs_per_flow counts every heap allocation
// on the way, the packets' event closures included.
void BM_TransferPoolFlowLifecycle(benchmark::State& state) {
  core::NetworkConfig cfg;
  cfg.num_tors = 2;
  cfg.calendar_mode = false;
  cfg.electrical_bw = 100e9;
  optics::Schedule sched(2, 1, 1, SimTime::seconds(3600));
  core::Network net(cfg, sched, optics::ocs_emulated());
  core::Controller ctl(net);
  ctl.deploy_routing(routing::electrical_default(2), core::LookupMode::PerHop,
                     core::MultipathMode::None);
  net.start();
  workload::TransferPool pool(net);
  std::int64_t done = 0;
  std::int64_t allocs = 0;
  for (auto _ : state) {
    const std::int64_t before = g_allocs.load(std::memory_order_relaxed);
    pool.launch(0, 1, 4000, {}, [&done](SimTime, std::int64_t) { ++done; });
    net.sim().run_until(net.sim().now() + 100_us);
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
  }
  if (done != state.iterations() || pool.active() != 0) {
    state.SkipWithError("a flow did not complete and reclaim");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_flow"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TransferPoolFlowLifecycle);

void BM_EarliestArrivalPerDestination(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  optics::Schedule sched(n, 1, topo::round_robin_period(n), 100_us);
  for (const auto& c : topo::round_robin_1d(n, 1)) sched.add_circuit(c);
  for (auto _ : state) {
    routing::EarliestArrival ea(sched, 0);
    benchmark::DoNotOptimize(ea.offset(1, 0));
  }
}
BENCHMARK(BM_EarliestArrivalPerDestination)->Arg(8)->Arg(16)->Arg(32);

void BM_VlbFullCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  optics::Schedule sched(n, 1, topo::round_robin_period(n), 100_us);
  for (const auto& c : topo::round_robin_1d(n, 1)) sched.add_circuit(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::vlb(sched));
  }
}
BENCHMARK(BM_VlbFullCycle)->Arg(8)->Arg(16);

void BM_HohoFullCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  optics::Schedule sched(n, 1, topo::round_robin_period(n), 100_us);
  for (const auto& c : topo::round_robin_1d(n, 1)) sched.add_circuit(c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::hoho(sched));
  }
}
BENCHMARK(BM_HohoFullCycle)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
