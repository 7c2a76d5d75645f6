// Microbenchmarks (google-benchmark) for the hot data-plane and
// control-plane primitives: time-flow table lookup, calendar-queue
// operations, EQO updates, event-engine throughput, and routing
// computation for a full rotor cycle.
#include <benchmark/benchmark.h>

#include "core/calendar_queue.h"
#include "core/eqo.h"
#include "core/time_flow_table.h"
#include "eventsim/simulator.h"
#include "routing/time_expanded.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"

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

void BM_TftLookupHit(benchmark::State& state) {
  const auto t = make_table(107, 108);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto* e = t.lookup(static_cast<SliceId>(i % 107),
                             static_cast<NodeId>(i % 50),
                             static_cast<NodeId>(i % 108));
    benchmark::DoNotOptimize(e);
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
    benchmark::DoNotOptimize(
        t.lookup(static_cast<SliceId>(i % 107), 3,
                 static_cast<NodeId>(i % 108)));
    ++i;
  }
}
BENCHMARK(BM_TftLookupWildcardFallback);

void BM_CalendarEnqueueDequeue(benchmark::State& state) {
  core::CalendarQueuePort port(static_cast<int>(state.range(0)), 1 << 30);
  std::uint64_t i = 0;
  for (auto _ : state) {
    net::Packet p;
    p.size_bytes = 1500;
    port.try_enqueue(std::move(p),
                     static_cast<int>(i % static_cast<std::uint64_t>(
                                              state.range(0))));
    benchmark::DoNotOptimize(port.active_queue().dequeue());
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

void BM_EventTimerChurn(benchmark::State& state) {
  TimerChurn churn;
  std::int64_t events = 0;
  for (auto _ : state) {
    const std::int64_t before = churn.s.events_executed();
    churn.s.run_until(churn.s.now() + 100_us);
    events += churn.s.events_executed() - before;
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventTimerChurn);

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
