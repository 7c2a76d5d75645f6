#include "eventsim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

namespace oo::sim {

namespace {

constexpr std::size_t kCompactMinQueue = 64;

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

void Simulator::push(Queue& q, Event ev) {
  q.heap.push_back(std::move(ev));
  std::push_heap(q.heap.begin(), q.heap.end(), std::greater<>{});
  if (profiler_ != nullptr && &q == &control_) {
    profiler_->sample_queue_depth(q.heap.size());
  }
}

EventHandle Simulator::insert(Queue& q, SimTime when, EventFn fn,
                              const char* tag, SimTime period) {
  if (when < q.now) {
    // Scheduling into the past would make virtual time run backwards when
    // the event pops (the run loop sets now = ev.when). Clamp to now so
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
  auto flag = std::make_shared<bool>(false);
  push(q, Event{when, q.next_seq++, std::move(fn), flag, tag, period});
  // Compact when cancelled events are (at least) the majority of a
  // non-trivial queue: filter them out and re-heapify. O(n), amortised by
  // the >=50% trigger.
  if (q.heap.size() >= kCompactMinQueue &&
      q.cancelled_pending->load(std::memory_order_relaxed) * 2 >
          static_cast<std::int64_t>(q.heap.size())) {
    std::erase_if(q.heap, [](const Event& ev) { return *ev.cancelled; });
    std::make_heap(q.heap.begin(), q.heap.end(), std::greater<>{});
    q.cancelled_pending->store(0, std::memory_order_relaxed);
    ++q.compactions;
  }
  return EventHandle{std::move(flag), q.cancelled_pending};
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
  while (!q.heap.empty() && q.heap.front().when <= last) {
    // stop() and the profiler act on the control queue only: a lane always
    // finishes its window, or results would depend on the worker count.
    if (control && stop_requested()) return;
    std::pop_heap(q.heap.begin(), q.heap.end(), std::greater<>{});
    Event ev = std::move(q.heap.back());
    q.heap.pop_back();
    q.now = ev.when;
    if (*ev.cancelled) {
      if (q.cancelled_pending->load(std::memory_order_relaxed) > 0) {
        q.cancelled_pending->fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (control && profiler_ != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      ev.fn();
      const auto t1 = std::chrono::steady_clock::now();
      profiler_->add(ev.tag,
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0).count());
    } else {
      ev.fn();
    }
    ++q.executed;
    // A periodic timer re-arms unless its own callback cancelled it. The
    // re-arm is never clamped (it is in the future) nor compacted.
    if (ev.period > SimTime::zero() && !*ev.cancelled) {
      ev.when += ev.period;
      ev.seq = q.next_seq++;
      push(q, std::move(ev));
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
  if (control_.heap.empty() ? control_.now < until : !stop_requested()) {
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
  for (Lane& ln : lanes_) ln.now = control_.now;
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

SimTime Simulator::min_pending_time() const {
  SimTime m =
      control_.heap.empty() ? SimTime::max() : control_.heap.front().when;
  for (const Lane& ln : lanes_) {
    if (!ln.heap.empty() && ln.heap.front().when < m) {
      m = ln.heap.front().when;
    }
  }
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
    push(q, Event{m.when, q.next_seq++, std::move(m.fn),
                  std::make_shared<bool>(false), m.tag, SimTime::zero()});
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
  std::size_t n = control_.heap.size();
  for (const Lane& ln : lanes_) n += ln.heap.size();
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
