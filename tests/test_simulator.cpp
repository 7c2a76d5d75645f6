#include "eventsim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/sharded.h"

namespace oo::sim {
namespace {

using namespace oo::literals;

// Invariant sink that keeps every past-schedule report, with the clock and
// lane of the context that delivered it.
struct RecordingSink : InvariantSink {
  explicit RecordingSink(const Simulator& s) : sim(s) {}
  void on_past_schedule(SimTime when, SimTime now, const char* tag) override {
    seen.push_back({when, now, tag});
    reported_at.push_back(sim.now());
    reported_on.push_back(sim.current_lane());
  }
  const Simulator& sim;
  std::vector<Simulator::PastScheduleRecord> seen;
  std::vector<SimTime> reported_at;
  std::vector<int> reported_on;
};

// A simulator with `lanes` lanes driven by the windowed engine.
struct LaneSim {
  LaneSim(int lanes, int workers, SimTime window) {
    sim.configure_lanes(lanes);
    engine = std::make_unique<parallel::ShardedEngine>(sim, lanes, workers,
                                                       window);
    sim.set_parallel_runner(engine.get());
  }
  Simulator sim;
  std::unique_ptr<parallel::ShardedEngine> engine;
};

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3_us, [&]() { order.push_back(3); });
  s.schedule_at(1_us, [&]() { order.push_back(1); });
  s.schedule_at(2_us, [&]() { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_us);
}

TEST(Simulator, TiesBreakByInsertion) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1_us, [&order, i]() { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  SimTime seen;
  s.schedule_at(5_us, [&]() {
    s.schedule_in(2_us, [&]() { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 7_us);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1_us, [&]() { ++fired; });
  s.schedule_at(10_us, [&]() { ++fired; });
  s.run_until(5_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_us);
  s.run_until(20_us);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenEmpty) {
  Simulator s;
  s.run_until(42_us);
  EXPECT_EQ(s.now(), 42_us);
}

TEST(Simulator, Cancellation) {
  Simulator s;
  int fired = 0;
  auto h = s.schedule_at(1_us, [&]() { ++fired; });
  s.schedule_at(500_ns, [&h]() { h.cancel(); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  int fired = 0;
  auto h = s.schedule_at(1_us, [&]() { ++fired; });
  s.run();
  h.cancel();  // must not crash
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, PeriodicTimer) {
  Simulator s;
  int ticks = 0;
  s.schedule_every(10_us, 10_us, [&]() { ++ticks; });
  s.run_until(55_us);
  EXPECT_EQ(ticks, 5);  // at 10,20,30,40,50
}

TEST(Simulator, PeriodicCancelStops) {
  Simulator s;
  int ticks = 0;
  auto h = s.schedule_every(10_us, 10_us, [&]() { ++ticks; });
  s.schedule_at(35_us, [&h]() { h.cancel(); });
  s.run_until(100_us);
  EXPECT_EQ(ticks, 3);
}

TEST(Simulator, LatePeriodicStartIsClampedToNow) {
  // A periodic timer whose start is already past takes schedule_at's
  // clamp: the first firing runs at now(), is counted and reported, and the
  // clock never runs backwards. Re-arms follow from the clamped firing.
  Simulator s;
  RecordingSink sink(s);
  s.set_invariant_sink(&sink);
  s.run_until(100_us);
  std::vector<SimTime> fired;
  s.schedule_every(50_us, 50_us, [&]() { fired.push_back(s.now()); }, "late");
  s.run_until(200_us);
  EXPECT_EQ(fired, (std::vector<SimTime>{100_us, 150_us, 200_us}));
  EXPECT_EQ(s.past_schedules(), 1);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0].when, 50_us);
  EXPECT_EQ(sink.seen[0].now, 100_us);
  EXPECT_STREQ(sink.seen[0].tag, "late");
}

TEST(Simulator, StopInsideEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1_us, [&]() {
    ++fired;
    s.stop();
  });
  s.schedule_at(2_us, [&]() { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsScheduledFromEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) s.schedule_in(1_ns, recurse);
  };
  s.schedule_at(SimTime::zero(), recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.events_executed(), 100);
}

TEST(Simulator, SameTimeSelfSchedule) {
  // Scheduling at `now` from within an event must still run (FIFO order).
  Simulator s;
  bool ran = false;
  s.schedule_at(1_us, [&]() {
    s.schedule_at(s.now(), [&]() { ran = true; });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CompactsWhenCancelledEventsDominate) {
  Simulator s;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(s.schedule_at(SimTime::micros(1000 + i), []() {}));
  }
  EXPECT_EQ(s.events_pending(), 1000u);
  for (auto& h : handles) h.cancel();
  // The next scheduling call sees a cancelled majority and compacts.
  s.schedule_at(1_us, []() {});
  EXPECT_GE(s.compactions(), 1);
  EXPECT_EQ(s.events_pending(), 1u);
  s.run();
  EXPECT_EQ(s.events_executed(), 1);
}

TEST(Simulator, ScopedReArmInsertsBeforeItCancels) {
  // 62 live timers, then one scoped timer re-armed 130 times. Assigning
  // schedules the new event first and cancels the old one after, so each
  // insert sees one dead key fewer than an explicit cancel-then-assign
  // would: the queue compacts once instead of twice and ends with more
  // dead keys queued.
  const auto run = [](bool cancel_first) {
    Simulator s;
    for (int i = 0; i < 62; ++i) {
      s.schedule_at(SimTime::millis(100 + i), []() {});
    }
    ScopedEventHandle timer;
    for (int i = 0; i < 130; ++i) {
      if (cancel_first) timer.cancel();
      timer = s.schedule_at(SimTime::millis(1 + i), []() {});
    }
    return std::pair{s.compactions(), s.events_pending()};
  };
  using Counts = std::pair<std::int64_t, std::size_t>;
  EXPECT_EQ(run(/*cancel_first=*/false), (Counts{1, 127}));
  EXPECT_EQ(run(/*cancel_first=*/true), (Counts{2, 64}));
}

TEST(Simulator, MassCancelledTimersDoNotGrowTheQueue) {
  // RTO-style churn: arm a far-future timer, cancel it, re-arm. Lazy
  // cancellation alone would retain every dead event until its deadline;
  // the compaction trigger must keep the queue bounded instead.
  Simulator s;
  std::size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    auto h = s.schedule_at(SimTime::millis(1000 + i), []() {});
    h.cancel();
    peak = std::max(peak, s.events_pending());
  }
  EXPECT_GE(s.compactions(), 1);
  EXPECT_LT(peak, 200u);
  EXPECT_LT(s.events_pending(), 200u);
}

TEST(Simulator, DoubleCancelIsCountedOnce) {
  Simulator s;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    auto h = s.schedule_at(SimTime::micros(100 + i), [&]() { ++fired; });
    h.cancel();
    h.cancel();  // second cancel must not inflate the pending-cancel count
    EventHandle copy = h;
    copy.cancel();
  }
  s.schedule_at(1_us, [&]() { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.events_executed(), 1);
}

TEST(Simulator, CancelsOfFiredEventsAreNotCounted) {
  // Only a queued event's cancel leaves a dead key. Cancelling 100 handles
  // whose events already fired must not push the 100 live timers queued
  // next into a compaction.
  Simulator s;
  std::vector<EventHandle> fired;
  for (int i = 0; i < 100; ++i) {
    fired.push_back(s.schedule_at(SimTime::micros(i), []() {}));
  }
  s.run();
  for (auto& h : fired) h.cancel();
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(SimTime::millis(1 + i), []() {});
  }
  EXPECT_EQ(s.compactions(), 0);
  EXPECT_EQ(s.events_pending(), 100u);
}

TEST(Simulator, CancellingTheFiringEventKeepsItsClosureAlive) {
  // The closure owns state it reads after cancelling its own event; the
  // slot is freed only once the callback returns (asan checks the read).
  Simulator s;
  EventHandle self;
  std::vector<int> seen;
  auto owned = std::make_shared<std::vector<int>>(64, 7);
  self = s.schedule_at(1_us, [&self, &seen, owned]() {
    self.cancel();
    seen.push_back((*owned)[63]);
  });
  owned.reset();
  // A periodic timer that cancels itself from its third firing is not
  // re-armed, and its handle stays harmless afterwards.
  int ticks = 0;
  EventHandle every;
  every = s.schedule_every(10_us, 10_us, [&]() {
    if (++ticks == 3) every.cancel();
  });
  s.run_until(100_us);
  EXPECT_EQ(seen, std::vector<int>{7});
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(s.events_pending(), 0u);
  every.cancel();
  self.cancel();
  EXPECT_EQ(s.events_executed(), 4);
}

TEST(Simulator, HandleCancelledAfterSimulatorDestroyedIsNoop) {
  EventHandle pending;
  EventHandle fired;
  {
    Simulator s;
    fired = s.schedule_at(1_us, []() {});
    pending = s.schedule_at(1_ms, []() {});
    s.run_until(10_us);
  }
  pending.cancel();
  fired.cancel();
  EXPECT_TRUE(pending.valid());
}

TEST(Simulator, CancelledPeriodicTimersCompactAway) {
  Simulator s;
  std::vector<EventHandle> timers;
  for (int i = 0; i < 500; ++i) {
    timers.push_back(s.schedule_every(1_us, 1_us, []() {}));
  }
  for (auto& t : timers) t.cancel();
  int ticks = 0;
  auto keep = s.schedule_every(1_us, 1_us, [&]() {
    if (++ticks >= 10) s.stop();
  });
  s.run();
  EXPECT_EQ(ticks, 10);
  // All 500 dead timers were shed rather than dispatched as skips forever.
  EXPECT_GE(s.compactions(), 1);
  EXPECT_LT(s.events_pending(), 64u);
  keep.cancel();
}

// A burst leaves no room behind. 100,000 keys due in one 16.4 us bucket
// run, then a sparse tail moves the queue on: a chain of events 50 us apart
// for 20 ms, beside a few timers further out. The key buffers then hold
// room for a small multiple of the keys still queued, on the control queue
// and on a lane of the windowed engine alike.
TEST(Simulator, KeyBuffersShrinkAfterABurst) {
  const auto burst_then_tail = [](Simulator& s, int lane) {
    for (int i = 0; i < 100'000; ++i) {
      s.schedule_at_lane(lane, 1_ms + SimTime::nanos(i % 10'000), []() {});
    }
    s.run_until(2_ms);
    EXPECT_GE(s.key_capacity(), 100'000u) << "lane " << lane;
    std::function<void()> link = [&s, &link]() {
      if (s.now() < 22_ms) s.schedule_in(50_us, link);
    };
    s.schedule_at_lane(lane, 2_ms + 50_us, [&link]() { link(); });
    for (int i = 0; i < 16; ++i) {
      s.schedule_at_lane(lane, SimTime::millis(30 + i), []() {});
    }
    s.run_until(21_ms);
    const std::size_t pending = s.events_pending();
    EXPECT_EQ(pending, 17u) << "lane " << lane;
    EXPECT_LE(s.key_capacity(), 4 * pending + 64) << "lane " << lane;
    s.run_until(23_ms);
  };
  Simulator control;
  burst_then_tail(control, Simulator::kControlLane);
  LaneSim ls(1, 1, 10_us);
  burst_then_tail(ls.sim, 0);
}

TEST(SimulatorLanes, PastScheduleOnLaneIsReportedAtTheBarrier) {
  for (int workers : {1, 4}) {
    LaneSim ls(4, workers, 10_us);
    Simulator& s = ls.sim;
    RecordingSink sink(s);
    s.set_invariant_sink(&sink);
    SimTime ran_at = SimTime::max();
    std::size_t reports_in_window = 1;
    s.schedule_at_lane(2, 13_us, [&]() {
      s.schedule_at(5_us, [&]() { ran_at = s.now(); }, "lane.past");
      reports_in_window = sink.seen.size();
    });
    s.run_until(50_us);
    // Clamped to the lane's clock and counted at once; the worker never
    // calls the sink — the barrier closing the window [10, 20) us does.
    EXPECT_EQ(ran_at, 13_us) << workers << " workers";
    EXPECT_EQ(s.past_schedules(), 1);
    EXPECT_EQ(reports_in_window, 0u);
    ASSERT_EQ(sink.seen.size(), 1u);
    EXPECT_EQ(sink.seen[0].when, 5_us);
    EXPECT_EQ(sink.seen[0].now, 13_us);
    EXPECT_STREQ(sink.seen[0].tag, "lane.past");
    EXPECT_EQ(sink.reported_at[0], 20_us);
    EXPECT_EQ(sink.reported_on[0], Simulator::kControlLane);
  }
}

TEST(SimulatorLanes, RunOnIsInlineWhereTheCallerMayTouchTheLane) {
  LaneSim ls(4, 1, 10_us);
  Simulator& s = ls.sim;
  bool setup_ran = false;
  s.run_on(2, [&]() { setup_ran = true; }, "t");
  EXPECT_TRUE(setup_ran);
  // Each event records whether run_on had already run its callable by the
  // time it returned.
  bool control_inline = false;
  bool own_lane_inline = false;
  s.schedule_at(5_us, [&]() {
    bool ran = false;
    s.run_on(3, [&]() { ran = true; }, "t");
    control_inline = ran;
  });
  s.schedule_at_lane(1, 12_us, [&]() {
    bool ran = false;
    s.run_on(1, [&]() { ran = true; }, "t");
    own_lane_inline = ran;
  });
  s.run_until(50_us);
  EXPECT_TRUE(control_inline);
  EXPECT_TRUE(own_lane_inline);
}

TEST(SimulatorLanes, RunOnFromAnotherLaneLandsAtTheNextWindowStart) {
  struct Landing {
    int from;
    int seq;
    SimTime at;
    int lane;
    bool operator==(const Landing&) const = default;
  };
  const auto run = [](int workers) {
    LaneSim ls(4, workers, 10_us);
    Simulator& s = ls.sim;
    // Appended only by events on lane 3, read after the run.
    std::vector<Landing> landed;
    for (int from = 0; from < 3; ++from) {
      s.schedule_at_lane(from, 13_us, [&s, &landed, from]() {
        for (int seq = 0; seq < 2; ++seq) {
          s.run_on(
              3,
              [&s, &landed, from, seq]() {
                landed.push_back({from, seq, s.now(), s.current_lane()});
              },
              "t");
        }
      });
    }
    s.run_until(50_us);
    return landed;
  };
  // Posted at 13 us from lanes 0-2, delivered on lane 3 when the next
  // window opens, in canonical (when, source lane, source order) order.
  std::vector<Landing> expected;
  for (int from = 0; from < 3; ++from) {
    for (int seq = 0; seq < 2; ++seq) expected.push_back({from, seq, 20_us, 3});
  }
  EXPECT_EQ(run(1), expected);
  EXPECT_EQ(run(4), expected);
}

}  // namespace
}  // namespace oo::sim
