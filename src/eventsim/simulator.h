// Discrete-event simulation engine. A single Simulator owns virtual time;
// components schedule closures at absolute or relative times. Ties are
// broken by insertion order, making runs fully deterministic.
//
// The simulator is also the telemetry attachment point: it owns the
// MetricsRegistry components register into, and carries optional non-owning
// pointers to a FlightRecorder (event tracing) and EventProfiler (wall-clock
// per dispatched event, bucketed by the tag given at scheduling time). All
// three are off by default and cost a null-check when unused.
//
// Every event lives in a Queue: a (when, seq)-ordered heap with its own
// clock, sequence counter, and cancelled-event accounting. The legacy engine
// is the control queue alone. Sharded mode (src/parallel/sharded.h):
// configure_lanes(N) adds N lane queues (one per ToR) beside it, and one
// insert/compact/pop-due path serves them all, so a lane's execution order
// is a pure function of the events delivered to it — independent of how
// many worker threads drive the lanes. Only stop() and the profiler act on
// the control queue alone: a lane always finishes its window. Cross-lane
// scheduling goes through schedule_at_lane(): same-lane and serial-context
// calls push directly; calls from a worker during the parallel phase are
// staged in the source lane's outbox and merged at the next window barrier
// in canonical (when, src_lane, src_seq) order, which is what makes results
// byte-identical at any shard count >= 1. run_on() is the hand-off for state
// one lane owns: inline when the caller may touch it, posted through the
// barrier otherwise.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"

namespace oo::sim {

using EventFn = std::function<void()>;

// Handle for cancelling a scheduled event. Cancellation is lazy: the event
// stays queued but is skipped when popped. The simulator tracks how many
// cancelled events are still queued and compacts the heap when they are the
// majority, so mass-cancelled timers don't grow the queue without bound.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return cancelled_ != nullptr; }
  void cancel() {
    if (cancelled_ && !*cancelled_) {
      *cancelled_ = true;
      // The pending counter is queue-wide, so in sharded mode two lanes
      // cancelling events of the same queue (control-armed timers) can
      // race on it — hence the relaxed atomic. It is bookkeeping for the
      // compaction heuristic only and self-heals at compaction.
      if (pending_) pending_->fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<bool> flag,
              std::shared_ptr<std::atomic<std::int64_t>> pending)
      : cancelled_(std::move(flag)), pending_(std::move(pending)) {}
  std::shared_ptr<bool> cancelled_;
  std::shared_ptr<std::atomic<std::int64_t>> pending_;
};

// RAII wrapper over EventHandle: cancels on destruction and on
// reassignment. The root cause of a recurring lifetime-bug class — timers
// whose owner dies while the event is queued — is an owner that forgets the
// destructor cancel; holding the timer as a ScopedEventHandle makes the
// cancel structural. Assigning a fresh handle (the re-arm idiom
// `wake_ = sim.schedule_at(...)`) cancels the previous event first, so
// owners also can't double-arm.
class ScopedEventHandle {
 public:
  ScopedEventHandle() = default;
  ScopedEventHandle(EventHandle h) : h_(std::move(h)) {}
  ScopedEventHandle(const ScopedEventHandle&) = delete;
  ScopedEventHandle& operator=(const ScopedEventHandle&) = delete;
  ScopedEventHandle(ScopedEventHandle&& o) noexcept : h_(std::move(o.h_)) {
    o.h_ = EventHandle{};
  }
  ScopedEventHandle& operator=(ScopedEventHandle&& o) noexcept {
    if (this != &o) {
      h_.cancel();
      h_ = std::move(o.h_);
      o.h_ = EventHandle{};
    }
    return *this;
  }
  ScopedEventHandle& operator=(EventHandle h) {
    h_.cancel();
    h_ = std::move(h);
    return *this;
  }
  ~ScopedEventHandle() { h_.cancel(); }

  bool valid() const { return h_.valid(); }
  void cancel() { h_.cancel(); }

 private:
  EventHandle h_;
};

// Invariant tap: a sink the chaos monitor (src/chaos/invariants.h) attaches
// to be told about scheduling-contract violations the simulator can detect
// itself. Detached (the default) the check is a null-pointer test, the same
// zero-overhead bar as the flight recorder.
class InvariantSink {
 public:
  virtual ~InvariantSink() = default;
  // `when` < now() was requested for an event; the simulator clamps it to
  // now() so virtual time can never run backwards.
  virtual void on_past_schedule(SimTime when, SimTime now,
                                const char* tag) = 0;
};

// Window-cycle driver installed by core::Network::enable_sharding().
// run_until/run delegate here when set, so existing call sites drive the
// sharded engine without knowing it exists.
class ParallelRunner {
 public:
  virtual ~ParallelRunner() = default;
  virtual void run_until(SimTime until) = 0;
  virtual void run_all() = 0;
};

class Simulator {
 public:
  // Lane id of the control queue (the original single-threaded queue) in
  // schedule_at_lane() and current_lane().
  static constexpr int kControlLane = -1;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Virtual time of the calling context: the executing lane's clock from a
  // worker, the control clock everywhere else (and always in legacy mode).
  SimTime now() const {
    return lanes_.empty() ? control_.now : queue(current_lane()).now;
  }

  // Schedule `fn` at absolute time `when` (must be >= now()). `tag` labels
  // the event for the profiler (static string; not copied). In sharded mode
  // the event lands on the calling context's lane.
  EventHandle schedule_at(SimTime when, EventFn fn, const char* tag = nullptr);
  // Schedule `fn` `delay` from now.
  EventHandle schedule_in(SimTime delay, EventFn fn,
                          const char* tag = nullptr) {
    return schedule_at(now() + delay, std::move(fn), tag);
  }
  // Periodic timer starting at `start`, repeating every `period` until
  // cancelled or the run ends. Models the on-chip packet generator that
  // drives queue rotation and EQO updates (§5.1, Appx A). The first firing
  // lands on the calling context's queue exactly like schedule_at (a past
  // `start` is clamped to now()); each re-arm stays on that queue.
  EventHandle schedule_every(SimTime start, SimTime period, EventFn fn,
                             const char* tag = nullptr);

  // Schedule onto an explicit lane (kControlLane or [0, num_lanes())).
  // Legacy mode: identical to schedule_at. Same-lane or serial-context
  // calls push directly and return a real handle; a cross-lane call from a
  // worker during the parallel phase is staged in the source lane's outbox
  // — delivered at the next barrier, never before the next window starts —
  // and returns an *invalid* handle (cross-lane events can't be cancelled).
  EventHandle schedule_at_lane(int lane, SimTime when, EventFn fn,
                               const char* tag = nullptr);

  // Run `fn` against state owned by `lane` (kControlLane or a lane index):
  // inline when the calling context may touch that state — legacy mode,
  // setup, the serial phases, or a worker already on `lane` — otherwise
  // post it to `lane` at now(), delivered at the next window barrier.
  template <typename F>
  void run_on(int lane, F&& fn, const char* tag) {
    if (cross_lane(lane)) {
      schedule_at_lane(lane, now(), std::forward<F>(fn), tag);
    } else {
      fn();
    }
  }

  // Run until the queue drains or `until` is reached, whichever first.
  void run_until(SimTime until);
  // Run until the event queue drains completely.
  void run();
  // Stop the current run loop after the in-flight event returns. Sharded:
  // takes effect at the next window barrier.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  std::int64_t events_executed() const;
  std::size_t events_pending() const;
  // Times the queue was compacted to shed lazily-cancelled events.
  std::int64_t compactions() const;

  // ---- telemetry ----
  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::MetricsRegistry& metrics() const { return metrics_; }

  // Attach/detach a flight recorder (non-owning; nullptr disables tracing).
  // Sharded: workers see their per-shard recorder (if the engine installed
  // one) so the hot path never shares a ring buffer across threads.
  void set_recorder(telemetry::FlightRecorder* rec) { recorder_ = rec; }
  telemetry::FlightRecorder* recorder() const {
    if (lanes_.empty()) return recorder_;
    return recorder_sharded();
  }

  // Attach/detach an event profiler (non-owning; nullptr disables timing).
  // Sharded: only control-queue events are timed (steady_clock reads from
  // worker threads would race on the shared buckets).
  void set_profiler(telemetry::EventProfiler* prof) { profiler_ = prof; }
  telemetry::EventProfiler* profiler() const { return profiler_; }

  // Attach/detach the invariant sink (non-owning; nullptr detaches).
  void set_invariant_sink(InvariantSink* sink) { invariants_ = sink; }
  InvariantSink* invariant_sink() const { return invariants_; }
  // Times an event was scheduled for a time in the past, on any queue
  // (always counted; the sink only adds reporting).
  std::int64_t past_schedules() const;

  // ---- sharded-lane engine (driven by parallel::ShardedEngine) ----
  // Split the queue into `num_lanes` lanes (lane i owns ToR i's events)
  // plus the control queue. One-shot; call before any events exist on the
  // future lanes (i.e. before Network::start()).
  void configure_lanes(int num_lanes);
  bool sharded() const { return !lanes_.empty(); }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  // Lane of the calling context: kControlLane unless called from a worker
  // executing a lane of *this* simulator.
  int current_lane() const;

  void set_parallel_runner(ParallelRunner* r) { runner_ = r; }
  ParallelRunner* parallel_runner() const { return runner_; }
  bool stop_requested() const {
    return stopped_.load(std::memory_order_relaxed);
  }
  void clear_stop() { stopped_.store(false, std::memory_order_relaxed); }

  // Engine-side window primitives. `end` is exclusive: events with
  // when < end run; the clock is then advanced to `end` by the barrier
  // (advance_all_to). Must only be called by the installed runner.
  void run_control_until_exclusive(SimTime end);
  void run_lane_until_exclusive(int lane, SimTime end,
                                telemetry::FlightRecorder* rec);
  void begin_parallel_phase() { in_parallel_ = true; }
  void end_parallel_phase() { in_parallel_ = false; }
  // Earliest pending event across the control queue and every lane
  // (SimTime::max() when fully drained).
  SimTime min_pending_time() const;
  void advance_all_to(SimTime t);

  struct MergeStats {
    std::int64_t delivered = 0;
    std::int64_t clamped = 0;
  };
  // Barrier exchange: drain every lane's outbox, sort canonically by
  // (when, src_lane, src_seq), deliver into the target queues assigning
  // target-lane sequence numbers in that order. Entries aimed before
  // `next_start` (the new window's start) are clamped up to it — counted,
  // never reordered, so clamping can't break shard-count identity.
  MergeStats merge_outboxes(SimTime next_start);

  struct PastScheduleRecord {
    SimTime when;
    SimTime now;
    const char* tag;
  };
  // Past-schedule reports captured on worker lanes since the last call, in
  // lane order (workers can't call the invariant sink directly; the engine
  // forwards these from the barrier).
  std::vector<PastScheduleRecord> take_lane_past_schedules();
  // Cumulative count of cross-lane messages ever staged in lane outboxes.
  // The engine's conservation ledger: staged must equal the cumulative
  // merge-delivered count at every barrier (no message lost or duplicated).
  std::int64_t cross_staged() const;

 private:
  struct Event {
    SimTime when;
    std::int64_t seq;
    EventFn fn;
    std::shared_ptr<bool> cancelled;
    const char* tag;
    SimTime period;  // > 0: periodic timer, re-armed after each firing
    bool operator>(const Event& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  // One cross-lane message staged during a parallel phase, exchanged at
  // the window barrier. (src_lane, src_seq) gives the canonical merge
  // order; `target` is a lane index or kControlLane.
  struct CrossLaneMsg {
    int target;
    SimTime when;
    EventFn fn;
    const char* tag;
    int src_lane;
    std::int64_t src_seq;
  };

  // The control queue and every lane. Min-heap over `heap`
  // (std::push_heap/pop_heap with operator>), kept as a plain vector so
  // compaction can filter cancelled events in place — std::priority_queue
  // hides its container.
  struct Queue {
    std::vector<Event> heap;
    SimTime now = SimTime::zero();
    std::int64_t next_seq = 0;
    std::int64_t executed = 0;
    std::int64_t compactions = 0;
    std::int64_t past_schedules = 0;
    // Shared with every EventHandle: count of cancelled events still
    // queued. May over-count when an already-fired event is cancelled;
    // compaction resets it, so drift self-heals.
    std::shared_ptr<std::atomic<std::int64_t>> cancelled_pending =
        std::make_shared<std::atomic<std::int64_t>>(0);
    // Past-schedule reports awaiting the barrier. Lanes only: the control
    // queue reports to the invariant sink directly.
    std::vector<PastScheduleRecord> past_log;
  };

  // A worker lane: its queue plus the outbox the barrier drains.
  struct Lane : Queue {
    std::vector<CrossLaneMsg> outbox;
    std::int64_t out_seq = 0;
    std::int64_t staged = 0;
  };

  // True when a direct touch of `lane`-owned state from the calling
  // context would race (worker on a different lane, parallel phase live).
  bool cross_lane(int lane) const;
  Queue& queue(int lane) {
    return lane == kControlLane ? control_
                                : lanes_[static_cast<std::size_t>(lane)];
  }
  const Queue& queue(int lane) const {
    return lane == kControlLane ? control_
                                : lanes_[static_cast<std::size_t>(lane)];
  }
  telemetry::FlightRecorder* recorder_sharded() const;
  // The one scheduling path: past-time clamp, push, compaction check.
  // `period` > 0 arms a periodic timer.
  EventHandle insert(Queue& q, SimTime when, EventFn fn, const char* tag,
                     SimTime period);
  void push(Queue& q, Event ev);
  // Dispatch q's events due at or before `last`, in (when, seq) order.
  void run_due(Queue& q, SimTime last);

  telemetry::MetricsRegistry metrics_;
  telemetry::FlightRecorder* recorder_ = nullptr;
  telemetry::EventProfiler* profiler_ = nullptr;
  InvariantSink* invariants_ = nullptr;
  std::atomic<bool> stopped_{false};

  Queue control_;
  std::vector<Lane> lanes_;
  bool in_parallel_ = false;
  ParallelRunner* runner_ = nullptr;
};

}  // namespace oo::sim
