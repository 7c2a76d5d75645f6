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
// Every event lives in a Queue with its own clock and sequence counter. A
// queue keeps each event's closure, tag and period in a slot arena and
// orders only 24-byte (when, seq, slot, generation) keys in two tiers: a
// small binary heap for the current 2^kBucketShift ns time bucket, and
// beyond it a ring of kRingBuckets buckets whose keys are appended unsorted
// and heapified only when their bucket comes due (keys past the ring wait
// in a far heap). Far-future timers such as RTOs therefore wait unsorted
// until their bucket is due, near-term events sift through a heap of one
// bucket's keys, and dispatch order is still exactly (when, seq). Each key
// buffer is sized to the keys it holds: a due bucket's keys are copied into
// the near heap's own buffer and the bucket's buffer freed, the near heap
// drops a buffer far larger than the keys coming in, and a compaction
// releases the room of the keys it erased. The legacy engine is the
// control queue alone.
// Sharded mode (src/parallel/sharded.h): configure_lanes(N) adds N lane
// queues (one per ToR) beside it, and one insert/compact/pop-due path
// serves them all, so a lane's execution order is a pure function of the
// events delivered to it — independent of how many worker threads drive
// the lanes. Only stop() and the profiler act on the control queue alone:
// a lane always finishes its window. Cross-lane scheduling goes through
// schedule_at_lane(): same-lane and serial-context calls push directly;
// calls from a worker during the parallel phase are staged in the source
// lane's outbox and merged at the next window barrier in canonical
// (when, src_lane, src_seq) order, which is what makes results
// byte-identical at any shard count >= 1. run_on() is the hand-off for
// state one lane owns: inline when the caller may touch it, posted through
// the barrier otherwise.
#pragma once

#include <atomic>
#include <cstddef>
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

// Handle for cancelling a scheduled event: the event's slot in its queue
// and the slot's generation when the event was scheduled. Every handle to a
// queue's events shares that queue's cancel table, so scheduling allocates
// nothing per event. Cancelling an event that already fired or was already
// cancelled is a no-op (the slot's generation has moved on), and so is
// cancelling after the Simulator is destroyed (the table outlives it). A
// cancel from the context that owns the queue frees the closure at once;
// its key stays queued, dead, until popped or compacted. A worker lane
// cancelling a control-queue event only marks it in the table, and the
// control queue frees it when it next sees the key.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return table_ != nullptr; }
  void cancel();

 private:
  friend class Simulator;
  struct Table;  // defined in simulator.cpp
  EventHandle(std::shared_ptr<Table> table, std::uint32_t slot,
              std::uint32_t gen)
      : table_(std::move(table)), slot_(slot), gen_(gen) {}
  std::shared_ptr<Table> table_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

// RAII wrapper over EventHandle: cancels on destruction and on
// reassignment. The root cause of a recurring lifetime-bug class — timers
// whose owner dies while the event is queued — is an owner that forgets the
// destructor cancel; holding the timer as a ScopedEventHandle makes the
// cancel structural, and owners can't double-arm. In the re-arm idiom
// `wake_ = sim.schedule_at(...)` the right-hand side runs first: the new
// event is inserted while the previous one is still live, and only then
// does the assignment cancel it. The dead-key count at that insert decides
// whether the queue compacts there, so assign-only and cancel-then-assign
// compact at different points, and events_pending(), the clock after
// run() and the sharded window grid all see it. Owners such as
// TrafficEngine::arm depend on the assign-only order; keep it.
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

  // A queue's time buckets are 2^kBucketShift ns (16.4 us) wide, and its
  // ring holds the kRingBuckets buckets after the current one: 8.4 ms, past
  // a 5 ms RTO armed anywhere in the current bucket.
  static constexpr int kBucketShift = 14;
  static constexpr std::size_t kRingBuckets = 512;

  Simulator();
  ~Simulator();
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
  // True when it was posted.
  template <typename F>
  bool run_on(int lane, F&& fn, const char* tag) {
    if (cross_lane(lane)) {
      schedule_at_lane(lane, now(), std::forward<F>(fn), tag);
      return true;
    }
    fn();
    return false;
  }

  // Run until the queue drains or `until` is reached, whichever first.
  void run_until(SimTime until);
  // Run until the event queue drains completely.
  void run();
  // Stop the current run loop after the in-flight event returns. Sharded:
  // takes effect at the next window barrier.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }

  std::int64_t events_executed() const;
  // Queued keys, cancelled ones not yet popped or compacted included.
  std::size_t events_pending() const;
  // Times a queue was compacted to shed the keys of cancelled events.
  std::int64_t compactions() const;
  // Keys the queues' near, ring and far buffers have room for, over the
  // control queue and every lane: events_pending() plus the spare room.
  std::size_t key_capacity() const;

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
  // Earliest queued key across the control queue and every lane, cancelled
  // ones included, exactly as the run loops will pop them (SimTime::max()
  // when fully drained). Not const: it may bring a queue's next ring bucket
  // into its near heap, which changes no pending event.
  SimTime min_pending_time();
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
  friend class EventHandle;

  // One queued event as the ordering structures see it: dispatch order is
  // (when, seq); (slot, gen) names the event in the queue's arena. The key
  // is dead once the slot's generation in the cancel table moved on or was
  // marked.
  struct Key {
    SimTime when;
    std::int64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Greater-than on (when, seq), for std::push_heap/pop_heap min-heaps.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  // An event's payload, held in the arena until it fires or is cancelled.
  struct Slot {
    EventFn fn;
    const char* tag = nullptr;
    SimTime period;  // > 0: periodic timer, re-armed after each firing
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

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::size_t kRingChunk = 64;

  // The control queue and every lane. Keys whose time bucket
  // (when >> kBucketShift) is at most `bucket` sit in the `near` min-heap;
  // keys fewer than kRingBuckets buckets ahead are appended to ring bucket
  // (b % kRingBuckets), whose bit in `ring_used` is set while it holds keys;
  // keys further out sit in the `far` min-heap. The near heap's top is thus
  // the earliest key whenever the heap is non-empty; when it empties,
  // fill_near() moves `bucket` to the next used ring bucket (or to the far
  // heap's first bucket), copies that bucket's keys into `near`, frees the
  // bucket's buffer and heapifies the keys.
  struct Queue {
    std::vector<Key> near;
    // Ring buckets, allocated kRingChunk at a time on first use, so a
    // queue pays only for the part of the ring its keys reach.
    std::unique_ptr<std::vector<Key>[]> ring[kRingBuckets / kRingChunk];
    std::uint64_t ring_used[kRingBuckets / 64] = {};
    std::size_t ring_keys = 0;
    std::vector<Key> far;
    std::int64_t bucket = 0;
    std::size_t keys = 0;  // near + ring + far, dead keys included
    // The arena: slot i's payload; free slots are reused last-in first-out.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> free_slots;
    // Shared with every EventHandle to this queue's events.
    std::shared_ptr<EventHandle::Table> table;
    // The slot whose callback is running, and whether that callback
    // cancelled its own event: the slot is released only once it returns.
    std::uint32_t firing = kNoSlot;
    bool firing_cancelled = false;
    SimTime now = SimTime::zero();
    std::int64_t next_seq = 0;
    std::int64_t executed = 0;
    std::int64_t compactions = 0;
    std::int64_t past_schedules = 0;
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
  // Give `q` a cancel table naming it as `lane`.
  void attach_table(Queue& q, int lane);
  // The one scheduling path: past-time clamp, slot, push, compaction
  // check. `period` > 0 arms a periodic timer.
  EventHandle insert(Queue& q, SimTime when, EventFn fn, const char* tag,
                     SimTime period);
  // Take a free slot (or a new one) for an event's payload.
  std::uint32_t alloc(Queue& q, EventFn fn, const char* tag, SimTime period);
  // Bump the slot's generation, so its keys and handles go dead, free it,
  // and destroy its closure last: that may cancel other events.
  void release(Queue& q, std::uint32_t slot);
  // Queue one key (counted, and sampled by the profiler on control).
  void push(Queue& q, const Key& k);
  // File a key into the near heap, the ring or the far heap by its bucket.
  void place(Queue& q, const Key& k);
  // Refill an empty near heap from the next bucket that holds keys; false
  // when the queue holds none.
  bool fill_near(Queue& q);
  // Drop every dead key, freeing the slots other lanes marked.
  void compact(Queue& q);
  // Cancel from a handle; see EventHandle.
  void cancel(EventHandle::Table& t, std::uint32_t slot, std::uint32_t gen);
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
