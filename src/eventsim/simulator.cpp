#include "eventsim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>

namespace oo::sim {

namespace {

constexpr std::size_t kCompactMinQueue = 64;
// Spare room a refilled near heap may keep: 96 KiB of keys.
constexpr std::size_t kNearSpareKeys = 4096;

// Worker-thread context: which simulator/lane the current thread is
// executing, and the per-shard flight recorder (if the engine installed
// one). Default-initialized on every thread — the main thread and campaign
// pool threads always read {nullptr, control}, so legacy simulators never
// see a stale lane from an unrelated sharded run.
struct LaneContext {
  const Simulator* sim = nullptr;
  int lane = Simulator::kControlLane;
  telemetry::FlightRecorder* recorder = nullptr;
};
thread_local LaneContext t_lane_ctx;

}  // namespace

telemetry::FlightRecorder* Simulator::recorder_sharded() const {
  if (t_lane_ctx.sim == this && t_lane_ctx.recorder != nullptr) {
    return t_lane_ctx.recorder;
  }
  return recorder_;
}

int Simulator::current_lane() const {
  return t_lane_ctx.sim == this ? t_lane_ctx.lane : kControlLane;
}

bool Simulator::cross_lane(int lane) const {
  if (lanes_.empty() || !in_parallel_) return false;
  const int cur = current_lane();
  return cur != kControlLane && cur != lane;
}

// A queue's cancel table: one generation word per arena slot, shared by the
// queue and every handle to its events. A slot's word is even while its
// event is live (the generation its keys and handles carry), odd once a
// worker lane marked it cancelled, and moves to the next even value when
// the slot is released (a stale handle could alias a live event only after
// 2^31 reuses of its slot). Only the owning context grows the vector or
// releases slots; another lane only sets the mark bit, and only on the
// control queue, which is idle during the parallel phase.
struct EventHandle::Table {
  Simulator* sim = nullptr;  // nulled when the simulator dies
  int lane = Simulator::kControlLane;
  std::vector<std::uint32_t> state;
  // Dead keys still queued: cancelled events not yet popped or compacted.
  std::atomic<std::int64_t> dead{0};
};

void EventHandle::cancel() {
  if (table_ != nullptr && table_->sim != nullptr) {
    table_->sim->cancel(*table_, slot_, gen_);
  }
}

Simulator::Simulator() { attach_table(control_, kControlLane); }

Simulator::~Simulator() {
  // Handles may outlive the simulator; their cancels become no-ops, also
  // those the closures destroyed below make.
  control_.table->sim = nullptr;
  for (Lane& ln : lanes_) ln.table->sim = nullptr;
}

void Simulator::attach_table(Queue& q, int lane) {
  q.table = std::make_shared<EventHandle::Table>();
  q.table->sim = this;
  q.table->lane = lane;
}

std::uint32_t Simulator::alloc(Queue& q, EventFn fn, const char* tag,
                               SimTime period) {
  if (!q.free_slots.empty()) {
    const std::uint32_t slot = q.free_slots.back();
    q.free_slots.pop_back();
    q.slots[slot] = Slot{std::move(fn), tag, period};
    return slot;
  }
  q.slots.push_back(Slot{std::move(fn), tag, period});
  q.table->state.push_back(0);
  return static_cast<std::uint32_t>(q.slots.size() - 1);
}

void Simulator::release(Queue& q, std::uint32_t slot) {
  std::uint32_t& st = q.table->state[slot];
  st = (st | 1u) + 1u;
  q.free_slots.push_back(slot);
  const EventFn doomed = std::move(q.slots[slot].fn);
}

void Simulator::place(Queue& q, const Key& k) {
  const std::int64_t b = k.when.ns() >> kBucketShift;
  if (b <= q.bucket) {
    q.near.push_back(k);
    std::push_heap(q.near.begin(), q.near.end(), Later{});
  } else if (b - q.bucket < static_cast<std::int64_t>(kRingBuckets)) {
    const auto i = static_cast<std::size_t>(b) % kRingBuckets;
    auto& chunk = q.ring[i / kRingChunk];
    if (!chunk) chunk = std::make_unique<std::vector<Key>[]>(kRingChunk);
    chunk[i % kRingChunk].push_back(k);
    q.ring_used[i / 64] |= std::uint64_t{1} << (i % 64);
    ++q.ring_keys;
  } else {
    q.far.push_back(k);
    std::push_heap(q.far.begin(), q.far.end(), Later{});
  }
}

void Simulator::push(Queue& q, const Key& k) {
  place(q, k);
  ++q.keys;
  if (profiler_ != nullptr && &q == &control_) {
    profiler_->sample_queue_depth(q.keys);
  }
}

bool Simulator::fill_near(Queue& q) {
  std::vector<Key>* due = nullptr;
  if (q.ring_keys > 0) {
    // The first used ring bucket after `bucket`, scanning the bitmap a
    // word at a time from there and wrapping once.
    const std::size_t start =
        static_cast<std::size_t>(q.bucket + 1) % kRingBuckets;
    std::size_t pos = start;
    for (;;) {
      const std::uint64_t bits = q.ring_used[pos / 64] >> (pos % 64);
      if (bits != 0) {
        pos += static_cast<std::size_t>(std::countr_zero(bits));
        break;
      }
      pos = (pos / 64 + 1) * 64 % kRingBuckets;
    }
    q.bucket += 1 + static_cast<std::int64_t>((pos - start) % kRingBuckets);
    q.ring_used[pos / 64] &= ~(std::uint64_t{1} << (pos % 64));
    due = &q.ring[pos / kRingChunk][pos % kRingChunk];
    q.ring_keys -= due->size();
  } else if (!q.far.empty()) {
    q.bucket = q.far.front().when.ns() >> kBucketShift;
  } else {
    return false;
  }
  // The near heap, empty here, keeps its own buffer unless that has room
  // for over four times the keys coming in plus kNearSpareKeys: then the
  // buffer goes, so a burst does not pin its room. The due keys are copied
  // over and their bucket's buffer freed.
  const std::size_t incoming = due == nullptr ? 0 : due->size();
  if (q.near.capacity() > 4 * incoming + kNearSpareKeys) {
    std::vector<Key>().swap(q.near);
  }
  if (due != nullptr) {
    q.near.assign(due->begin(), due->end());
    std::vector<Key>().swap(*due);
    std::make_heap(q.near.begin(), q.near.end(), Later{});
  }
  // Far keys the ring now spans move in; those in the new bucket go to the
  // near heap.
  while (!q.far.empty() &&
         (q.far.front().when.ns() >> kBucketShift) - q.bucket <
             static_cast<std::int64_t>(kRingBuckets)) {
    std::pop_heap(q.far.begin(), q.far.end(), Later{});
    const Key k = q.far.back();
    q.far.pop_back();
    place(q, k);
  }
  return true;
}

void Simulator::compact(Queue& q) {
  const std::vector<std::uint32_t>& state = q.table->state;
  std::vector<std::uint32_t> marked;
  std::size_t removed = 0;
  const auto dead = [&](const Key& k) {
    const std::uint32_t st = state[k.slot];
    if (st == k.gen) return false;
    if (st == (k.gen | 1u)) marked.push_back(k.slot);
    return true;
  };
  // Erases the dead keys of `keys` and releases the room they took.
  const auto shed = [&](std::vector<Key>& keys) {
    const std::size_t n = std::erase_if(keys, dead);
    if (n > 0) keys.shrink_to_fit();
    removed += n;
    return n;
  };
  shed(q.near);
  std::make_heap(q.near.begin(), q.near.end(), Later{});
  for (std::size_t i = 0; i < kRingBuckets; ++i) {
    if (!q.ring[i / kRingChunk]) continue;
    std::vector<Key>& keys = q.ring[i / kRingChunk][i % kRingChunk];
    q.ring_keys -= shed(keys);
    if (keys.empty()) q.ring_used[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }
  shed(q.far);
  std::make_heap(q.far.begin(), q.far.end(), Later{});
  q.keys -= removed;
  q.table->dead.fetch_sub(static_cast<std::int64_t>(removed),
                          std::memory_order_relaxed);
  ++q.compactions;
  for (const std::uint32_t slot : marked) release(q, slot);
}

void Simulator::cancel(EventHandle::Table& t, std::uint32_t slot,
                       std::uint32_t gen) {
  if (cross_lane(t.lane)) {
    // A worker cancelling a control-queue timer: mark it; the control
    // queue releases the slot when it pops or compacts the key.
    std::atomic_ref<std::uint32_t> st(t.state[slot]);
    std::uint32_t expected = gen;
    if (st.compare_exchange_strong(expected, gen | 1u,
                                   std::memory_order_relaxed)) {
      t.dead.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (t.state[slot] != gen) return;  // fired, cancelled or marked already
  Queue& q = queue(t.lane);
  if (slot == q.firing) {
    // Its own callback (or one it called) cancels the running event: the
    // closure is mid-call, and its key is no longer queued.
    q.firing_cancelled = true;
    return;
  }
  t.dead.fetch_add(1, std::memory_order_relaxed);
  release(q, slot);
}

EventHandle Simulator::insert(Queue& q, SimTime when, EventFn fn,
                              const char* tag, SimTime period) {
  if (when < q.now) {
    // Scheduling into the past would make virtual time run backwards when
    // the event pops (the run loop sets now = its when). Clamp to now so
    // behaviour stays defined, count it, and tell the invariant monitor —
    // a legal program never takes this branch, so the clamp cannot change
    // any correct run. Workers can't call the single-threaded sink, so a
    // lane logs the report for the barrier to forward.
    ++q.past_schedules;
    if (&q != &control_) {
      q.past_log.push_back({when, q.now, tag});
    } else if (invariants_ != nullptr) {
      invariants_->on_past_schedule(when, q.now, tag);
    }
    when = q.now;
  }
  const std::uint32_t slot = alloc(q, std::move(fn), tag, period);
  const std::uint32_t gen = q.table->state[slot];
  push(q, Key{when, q.next_seq++, slot, gen});
  // Compact when dead keys are the majority of a non-trivial queue. O(n),
  // amortised by the >50% trigger; the dead count is exact.
  if (q.keys >= kCompactMinQueue &&
      q.table->dead.load(std::memory_order_relaxed) * 2 >
          static_cast<std::int64_t>(q.keys)) {
    compact(q);
  }
  return EventHandle{q.table, slot, gen};
}

EventHandle Simulator::schedule_at(SimTime when, EventFn fn, const char* tag) {
  return insert(queue(current_lane()), when, std::move(fn), tag,
                SimTime::zero());
}

EventHandle Simulator::schedule_at_lane(int lane, SimTime when, EventFn fn,
                                        const char* tag) {
  if (lanes_.empty()) return schedule_at(when, std::move(fn), tag);
  assert(lane == kControlLane || (lane >= 0 && lane < num_lanes()));
  if (cross_lane(lane)) {
    // Worker-to-elsewhere during a parallel phase: stage in the source
    // lane's outbox; the barrier merges it in canonical order. The handle
    // is intentionally invalid — the event doesn't exist yet.
    const int cur = current_lane();
    Lane& src = lanes_[static_cast<std::size_t>(cur)];
    src.outbox.push_back(
        CrossLaneMsg{lane, when, std::move(fn), tag, cur, src.out_seq++});
    ++src.staged;
    return EventHandle{};
  }
  // Same lane or serial context (control phase, barrier, setup): push
  // straight into the target queue with the target's own clock/sequence.
  return insert(queue(lane), when, std::move(fn), tag, SimTime::zero());
}

EventHandle Simulator::schedule_every(SimTime start, SimTime period,
                                      EventFn fn, const char* tag) {
  assert(period > SimTime::zero());
  return insert(queue(current_lane()), start, std::move(fn), tag, period);
}

void Simulator::run_due(Queue& q, SimTime last) {
  const bool control = &q == &control_;
  EventHandle::Table& table = *q.table;
  for (;;) {
    if (q.near.empty() && !fill_near(q)) return;
    if (q.near.front().when > last) return;
    // stop() and the profiler act on the control queue only: a lane always
    // finishes its window, or results would depend on the worker count.
    if (control && stop_requested()) return;
    std::pop_heap(q.near.begin(), q.near.end(), Later{});
    const Key k = q.near.back();
    q.near.pop_back();
    --q.keys;
    // A dead key still moves the clock: the clock after run() and the
    // sharded window grid (min_pending_time) see every queued key.
    q.now = k.when;
    const std::uint32_t st = table.state[k.slot];
    if (st != k.gen) {
      if (st == (k.gen | 1u)) release(q, k.slot);  // marked by a lane
      table.dead.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    // The callback may grow the arena, so it runs from a local; the slot
    // stays allocated (and its handle live) until it returns.
    EventFn fn = std::move(q.slots[k.slot].fn);
    q.firing = k.slot;
    q.firing_cancelled = false;
    try {
      if (control && profiler_ != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        profiler_->add(q.slots[k.slot].tag,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t1 - t0).count());
      } else {
        fn();
      }
    } catch (...) {
      q.firing = kNoSlot;
      release(q, k.slot);
      throw;
    }
    q.firing = kNoSlot;
    ++q.executed;
    // A periodic timer re-arms in its slot, keeping its handle live, unless
    // its own callback cancelled it. The re-arm is never clamped (it is in
    // the future) nor compacted.
    const SimTime period = q.slots[k.slot].period;
    if (period > SimTime::zero() && !q.firing_cancelled) {
      q.slots[k.slot].fn = std::move(fn);
      push(q, Key{k.when + period, q.next_seq++, k.slot, k.gen});
    } else {
      release(q, k.slot);
    }
  }
}

void Simulator::run_until(SimTime until) {
  if (runner_ != nullptr) {
    runner_->run_until(until);
    return;
  }
  clear_stop();
  run_due(control_, until);
  // The clock parks at the horizon, never moving back on a drained queue,
  // unless stop() ended the run with events still queued.
  if (control_.keys == 0 ? control_.now < until : !stop_requested()) {
    control_.now = until;
  }
}

void Simulator::run() {
  if (runner_ != nullptr) {
    runner_->run_all();
    return;
  }
  clear_stop();
  run_due(control_, SimTime::max());
}

// ---- sharded-lane engine ----

void Simulator::configure_lanes(int num_lanes) {
  assert(lanes_.empty() && "configure_lanes is one-shot");
  assert(num_lanes > 0);
  lanes_.resize(static_cast<std::size_t>(num_lanes));
  for (int i = 0; i < num_lanes; ++i) {
    Lane& ln = lanes_[static_cast<std::size_t>(i)];
    ln.now = control_.now;
    attach_table(ln, i);
  }
}

void Simulator::run_control_until_exclusive(SimTime end) {
  run_due(control_, end - SimTime::nanos(1));
}

void Simulator::run_lane_until_exclusive(int lane, SimTime end,
                                         telemetry::FlightRecorder* rec) {
  const LaneContext saved = t_lane_ctx;
  t_lane_ctx = LaneContext{this, lane, rec};
  run_due(queue(lane), end - SimTime::nanos(1));
  t_lane_ctx = saved;
}

SimTime Simulator::min_pending_time() {
  const auto front = [this](Queue& q) {
    return q.near.empty() && !fill_near(q) ? SimTime::max()
                                           : q.near.front().when;
  };
  SimTime m = front(control_);
  for (Lane& ln : lanes_) m = std::min(m, front(ln));
  return m;
}

void Simulator::advance_all_to(SimTime t) {
  if (control_.now < t) control_.now = t;
  for (Lane& ln : lanes_) {
    if (ln.now < t) ln.now = t;
  }
}

Simulator::MergeStats Simulator::merge_outboxes(SimTime next_start) {
  MergeStats stats;
  std::vector<CrossLaneMsg> msgs;
  for (Lane& ln : lanes_) {
    if (ln.outbox.empty()) continue;
    msgs.insert(msgs.end(), std::make_move_iterator(ln.outbox.begin()),
                std::make_move_iterator(ln.outbox.end()));
    ln.outbox.clear();
    ln.out_seq = 0;
  }
  if (msgs.empty()) return stats;
  // Canonical exchange order: (when, src_lane, src_seq) is a total order
  // (src_seq is unique per src_lane), so the target-side sequence numbers
  // assigned below are independent of worker count and scheduling jitter.
  std::sort(msgs.begin(), msgs.end(),
            [](const CrossLaneMsg& a, const CrossLaneMsg& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src_lane != b.src_lane) return a.src_lane < b.src_lane;
              return a.src_seq < b.src_seq;
            });
  for (CrossLaneMsg& m : msgs) {
    if (m.when < next_start) {
      // A cross-lane hop shorter than the sync window (control mailboxes,
      // bind messages). Deterministic: every shard count clamps the same
      // message to the same instant.
      m.when = next_start;
      ++stats.clamped;
    }
    Queue& q = queue(m.target);
    const std::uint32_t slot = alloc(q, std::move(m.fn), m.tag, SimTime::zero());
    push(q, Key{m.when, q.next_seq++, slot, q.table->state[slot]});
    ++stats.delivered;
  }
  return stats;
}

std::vector<Simulator::PastScheduleRecord>
Simulator::take_lane_past_schedules() {
  std::vector<PastScheduleRecord> out;
  for (Lane& ln : lanes_) {
    out.insert(out.end(), ln.past_log.begin(), ln.past_log.end());
    ln.past_log.clear();
  }
  return out;
}

std::int64_t Simulator::events_executed() const {
  std::int64_t n = control_.executed;
  for (const Lane& ln : lanes_) n += ln.executed;
  return n;
}

std::size_t Simulator::events_pending() const {
  std::size_t n = control_.keys;
  for (const Lane& ln : lanes_) n += ln.keys;
  return n;
}

std::size_t Simulator::key_capacity() const {
  const auto capacity = [](const Queue& q) {
    std::size_t n = q.near.capacity() + q.far.capacity();
    for (const auto& chunk : q.ring) {
      if (!chunk) continue;
      for (std::size_t i = 0; i < kRingChunk; ++i) n += chunk[i].capacity();
    }
    return n;
  };
  std::size_t n = capacity(control_);
  for (const Lane& ln : lanes_) n += capacity(ln);
  return n;
}

std::int64_t Simulator::compactions() const {
  std::int64_t n = control_.compactions;
  for (const Lane& ln : lanes_) n += ln.compactions;
  return n;
}

std::int64_t Simulator::cross_staged() const {
  std::int64_t n = 0;
  for (const Lane& ln : lanes_) n += ln.staged;
  return n;
}

std::int64_t Simulator::past_schedules() const {
  std::int64_t n = control_.past_schedules;
  for (const Lane& ln : lanes_) n += ln.past_schedules;
  return n;
}

}  // namespace oo::sim
