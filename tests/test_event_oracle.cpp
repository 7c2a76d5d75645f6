// Differential oracle for the event queue. ReferenceQueue is the queue the
// simulator had before its two-tier rebuild: one binary heap of 80-byte
// events, each holding its closure and a shared_ptr<bool> cancel flag, with
// lazy cancellation and the same compaction trigger. Seeded random scripts
// drive it and sim::Simulator side by side and must produce the same
// dispatch sequence, executed count and clock. The lane variant runs one
// script on four lanes at 1 and 4 worker threads and requires identical
// per-queue sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "eventsim/simulator.h"
#include "parallel/sharded.h"

namespace oo::sim {
namespace {

using namespace oo::literals;

class ReferenceQueue {
 public:
  class Handle {
   public:
    void cancel() {
      if (flag_ && !*flag_) {
        *flag_ = true;
        ++*dead_;
      }
    }

   private:
    friend class ReferenceQueue;
    std::shared_ptr<bool> flag_;
    std::shared_ptr<std::int64_t> dead_;
  };

  SimTime now() const { return now_; }
  std::int64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return heap_.size(); }
  std::int64_t compactions() const { return compactions_; }
  void stop() { stopped_ = true; }
  Handle schedule_at(SimTime when, EventFn fn, const char* tag) {
    return insert(when, std::move(fn), tag, SimTime::zero());
  }
  Handle schedule_every(SimTime start, SimTime period, EventFn fn,
                        const char* tag) {
    return insert(start, std::move(fn), tag, period);
  }
  void run_until(SimTime until) {
    stopped_ = false;
    run_due(until);
    if (heap_.empty() ? now_ < until : !stopped_) now_ = until;
  }
  void run() {
    stopped_ = false;
    run_due(SimTime::max());
  }

 private:
  struct Event {
    SimTime when;
    std::int64_t seq;
    EventFn fn;
    std::shared_ptr<bool> cancelled;  // also set once a one-shot fired
    const char* tag;
    SimTime period;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  Handle insert(SimTime when, EventFn fn, const char* tag, SimTime period) {
    when = std::max(when, now_);
    Handle h;
    h.flag_ = std::make_shared<bool>(false);
    h.dead_ = dead_;
    push(Event{when, next_seq_++, std::move(fn), h.flag_, tag, period});
    if (heap_.size() >= 64 &&
        *dead_ * 2 > static_cast<std::int64_t>(heap_.size())) {
      std::erase_if(heap_, [](const Event& ev) { return *ev.cancelled; });
      std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
      *dead_ = 0;
      ++compactions_;
    }
    return h;
  }
  void push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  void run_due(SimTime last) {
    while (!heap_.empty() && heap_.front().when <= last) {
      if (stopped_) return;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.when;
      if (*ev.cancelled) {
        --*dead_;
        continue;
      }
      // Cancels count only queued events: a fired one-shot takes none, and
      // a periodic timer's cancel from its own callback is taken back.
      if (ev.period == SimTime::zero()) *ev.cancelled = true;
      ev.fn();
      ++executed_;
      if (ev.period == SimTime::zero()) continue;
      if (*ev.cancelled) {
        --*dead_;
        continue;
      }
      ev.when += ev.period;
      ev.seq = next_seq_++;
      push(std::move(ev));
    }
  }

  std::vector<Event> heap_;
  SimTime now_ = SimTime::zero();
  std::int64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
  std::int64_t compactions_ = 0;
  bool stopped_ = false;
  std::shared_ptr<std::int64_t> dead_ = std::make_shared<std::int64_t>(0);
};

// splitmix64: a script's draws, and each firing's own stream.
struct Draw {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  bool chance(int pct) { return below(100) < pct; }
};

std::uint64_t stream(std::uint64_t seed, std::int64_t a, std::int64_t b) {
  Draw d{seed ^ (static_cast<std::uint64_t>(a) * 0x100000001B3ull)};
  d.s ^= static_cast<std::uint64_t>(b) << 20;
  return d.next();
}

// Offsets from now covering every tier: the same instant, within a bucket,
// a few buckets, either side of the ring's span, beyond it, and gaps many
// ring spans wide. 1 in 12 is negative: a past schedule, clamped to now.
SimTime draw_offset(Draw& d) {
  constexpr std::int64_t bucket = std::int64_t{1} << Simulator::kBucketShift;
  constexpr std::int64_t span =
      bucket * static_cast<std::int64_t>(Simulator::kRingBuckets);
  switch (d.below(6)) {
    case 0:
      return d.chance(50) ? SimTime::zero()
                          : SimTime::nanos(-1 - d.below(3 * bucket));
    case 1:
      return SimTime::nanos(d.below(bucket));
    case 2:
      return SimTime::nanos(d.below(25 * bucket));
    case 3:
      return SimTime::nanos(span - 2 * bucket + d.below(4 * bucket));
    case 4:
      return SimTime::nanos(span + d.below(5 * span));
    default:
      return SimTime::nanos(8 * span + d.below(80 * span));
  }
}

SimTime draw_period(Draw& d) {
  const SimTime periods[] = {1_us, 7_us, 3_ms, 9_ms, 40_ms};
  return periods[d.below(5)];
}

// One log entry: (clock, event id), or (clock, -1) after a top-level run.
using Log = std::vector<std::pair<SimTime, std::int64_t>>;

// A random program against the single-queue API of Sim.
template <typename Sim>
class Script {
 public:
  using Handle = decltype(std::declval<Sim&>().schedule_at(
      SimTime::zero(), EventFn{}, nullptr));

  Script(Sim& sim, std::uint64_t seed) : sim_(sim), seed_(seed) {}

  Log run() {
    Draw d{seed_};
    for (int step = 0; step < 60; ++step) {
      switch (d.below(8)) {
        case 0:
        case 1:
          for (std::int64_t i = d.below(12); i >= 0; --i) schedule(d, 0);
          break;
        case 2:
          every(d);
          break;
        case 3:
          for (std::int64_t i = d.below(6); i >= 0; --i) cancel_any(d);
          break;
        case 4:
          churn(d);
          break;
        case 5:
        case 6:
          sim_.run_until(sim_.now() + SimTime::nanos(std::max<std::int64_t>(
                                          0, draw_offset(d).ns())));
          log_.push_back({sim_.now(), -1});
          break;
        default:
          sim_.run();
          log_.push_back({sim_.now(), -1});
      }
    }
    sim_.run();
    log_.push_back({sim_.now(), -1});
    return log_;
  }

 private:
  struct Entry {
    Handle handle;
    int firings = 0;
  };

  void schedule(Draw& d, int depth) {
    const auto id = static_cast<std::int64_t>(events_.size());
    events_.push_back({});
    events_.back().handle = sim_.schedule_at(
        sim_.now() + draw_offset(d), [this, id, depth]() { fire(id, depth); },
        "oracle");
  }
  void every(Draw& d) {
    const auto id = static_cast<std::int64_t>(events_.size());
    const int last = 1 + static_cast<int>(d.below(5));
    events_.push_back({});
    events_.back().handle = sim_.schedule_every(
        sim_.now() + draw_offset(d), draw_period(d),
        [this, id, last]() {
          // A periodic timer that cancels itself on its last firing.
          if (++events_[static_cast<std::size_t>(id)].firings == last) {
            events_[static_cast<std::size_t>(id)].handle.cancel();
          }
          fire(id, 4);
        },
        "oracle.every");
  }
  // RTO-style churn: a burst of timers, most cancelled again, so dead keys
  // reach the compaction trigger.
  void churn(Draw& d) {
    const std::size_t first = events_.size();
    for (std::int64_t i = 32 + d.below(96); i > 0; --i) schedule(d, 4);
    for (std::size_t i = first; i < events_.size(); ++i) {
      if (d.chance(80)) events_[i].handle.cancel();
    }
  }
  // Any event so far: pending, fired, cancelled or the one firing.
  void cancel_any(Draw& d) {
    if (events_.empty()) return;
    events_[static_cast<std::size_t>(
                d.below(static_cast<std::int64_t>(events_.size())))]
        .handle.cancel();
  }
  void fire(std::int64_t id, int depth) {
    log_.push_back({sim_.now(), id});
    Draw d{stream(seed_, id, events_[static_cast<std::size_t>(id)].firings)};
    if (depth < 4 && d.chance(45)) schedule(d, depth + 1);  // re-arm
    if (depth < 4 && d.chance(3)) every(d);
    if (d.chance(25)) cancel_any(d);
    if (d.chance(3)) sim_.stop();
  }

  Sim& sim_;
  std::uint64_t seed_;
  std::vector<Entry> events_;
  Log log_;
};

TEST(EventOracle, SimulatorMatchesReferenceHeap) {
  std::int64_t compactions = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    ReferenceQueue ref;
    Simulator sim;
    const Log want = Script<ReferenceQueue>(ref, seed).run();
    const Log got = Script<Simulator>(sim, seed).run();
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(sim.events_executed(), ref.events_executed()) << "seed " << seed;
    EXPECT_EQ(sim.now(), ref.now()) << "seed " << seed;
    EXPECT_EQ(sim.events_pending(), ref.events_pending()) << "seed " << seed;
    EXPECT_EQ(sim.compactions(), ref.compactions()) << "seed " << seed;
    compactions += sim.compactions();
  }
  // The scripts cancel enough for the compaction path to be compared too.
  EXPECT_GT(compactions, 0);
}

// The same kind of script on four lanes plus the control queue, run at 1
// and at 4 worker threads. Lane callbacks schedule on their own lane, post
// to other lanes through the barrier, and cancel events of their own lane
// or of the control queue (the latter only marks them); control callbacks
// and the top level cancel anything.
class LaneScript {
 public:
  static constexpr int kLanes = 4;

  LaneScript(int workers, std::uint64_t seed) : seed_(seed) {
    sim_.configure_lanes(kLanes);
    engine_ = std::make_unique<parallel::ShardedEngine>(sim_, kLanes, workers,
                                                        10_us);
    sim_.set_parallel_runner(engine_.get());
  }

  struct Result {
    std::vector<Log> logs;  // [0] control, [1 + i] lane i
    std::int64_t executed;
    std::int64_t windows;
    bool operator==(const Result&) const = default;
  };

  Result run() {
    Draw d{seed_};
    for (int step = 0; step < 40; ++step) {
      switch (d.below(6)) {
        case 0:
        case 1:
          for (std::int64_t i = d.below(12); i >= 0; --i) {
            schedule(d, static_cast<int>(d.below(kLanes + 1)) - 1, 0);
          }
          break;
        case 2:
          every(d);
          break;
        case 3:
          for (std::int64_t i = d.below(6); i >= 0; --i) cancel(d);
          break;
        default:
          sim_.run_until(sim_.now() + SimTime::nanos(std::max<std::int64_t>(
                                          0, draw_offset(d).ns())));
          logs_[0].push_back({sim_.now(), -1});
      }
    }
    sim_.run();
    logs_[0].push_back({sim_.now(), -1});
    return {logs_, sim_.events_executed(), engine_->stats().windows};
  }

 private:
  struct Entry {
    int target;  // queue the event landed on
    EventHandle handle;
    int firings = 0;
  };
  // Events scheduled by each context: [0] the serial contexts (top level
  // and control callbacks), [1 + i] lane i. Only that context appends.
  std::vector<Entry>& mine() {
    return made_[static_cast<std::size_t>(sim_.current_lane() + 1)];
  }

  void schedule(Draw& d, int target, int depth) {
    const int src = sim_.current_lane() + 1;
    const auto id = src * 100'000 + static_cast<std::int64_t>(mine().size());
    mine().push_back({target, {}, 0});
    const std::size_t at = mine().size() - 1;
    EventHandle h = sim_.schedule_at_lane(
        target, sim_.now() + draw_offset(d),
        [this, id, depth]() { fire(id, depth); }, "oracle.lane");
    mine()[at].handle = h;  // invalid when posted through the barrier
  }
  void every(Draw& d) {
    const int src = sim_.current_lane() + 1;
    const auto at = mine().size();
    const auto id = src * 100'000 + static_cast<std::int64_t>(at);
    const int last = 1 + static_cast<int>(d.below(5));
    mine().push_back({sim_.current_lane(), {}, 0});
    EventHandle h = sim_.schedule_every(
        sim_.now() + draw_offset(d), draw_period(d),
        [this, src, at, id, last]() {
          Entry& e = made_[static_cast<std::size_t>(src)][at];
          if (++e.firings == last) e.handle.cancel();
          fire(id, 4);
        },
        "oracle.lane.every");
    mine()[at].handle = h;
  }
  void cancel(Draw& d) {
    const int cur = sim_.current_lane();
    if (cur == Simulator::kControlLane) {
      auto& from = made_[static_cast<std::size_t>(d.below(kLanes + 1))];
      if (!from.empty()) {
        from[static_cast<std::size_t>(
                 d.below(static_cast<std::int64_t>(from.size())))]
            .handle.cancel();
      }
      return;
    }
    // A lane: its own events, or control-queue events the serial contexts
    // scheduled (a cross-lane cancel, only marked).
    auto& from = d.chance(50) ? mine() : made_[0];
    if (from.empty()) return;
    Entry& e = from[static_cast<std::size_t>(
        d.below(static_cast<std::int64_t>(from.size())))];
    if (e.target == cur || e.target == Simulator::kControlLane) {
      e.handle.cancel();
    }
  }
  void fire(std::int64_t id, int depth) {
    const int cur = sim_.current_lane();
    logs_[static_cast<std::size_t>(cur + 1)].push_back({sim_.now(), id});
    Draw d{stream(seed_, id, sim_.now().ns())};
    if (depth < 4 && d.chance(45)) {
      const int target =
          d.chance(60) ? cur : static_cast<int>(d.below(kLanes + 1)) - 1;
      schedule(d, target, depth + 1);
    }
    if (depth < 4 && d.chance(3)) every(d);
    if (d.chance(25)) cancel(d);
  }

  Simulator sim_;
  std::unique_ptr<parallel::ShardedEngine> engine_;
  std::uint64_t seed_;
  std::vector<std::vector<Entry>> made_ =
      std::vector<std::vector<Entry>>(kLanes + 1);
  std::vector<Log> logs_ = std::vector<Log>(kLanes + 1);
};

TEST(EventOracle, LaneScriptsIdenticalAtOneAndFourWorkers) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const LaneScript::Result one = LaneScript(1, seed).run();
    const LaneScript::Result four = LaneScript(4, seed).run();
    EXPECT_GT(one.executed, 0);
    ASSERT_TRUE(one == four) << "seed " << seed;
  }
}

}  // namespace
}  // namespace oo::sim
