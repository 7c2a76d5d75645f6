#include "parallel/sharded.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"

namespace oo::parallel {

ShardedEngine::ShardedEngine(sim::Simulator& sim, int num_lanes,
                             int num_workers, SimTime window)
    : sim_(sim),
      num_lanes_(num_lanes),
      num_workers_(std::clamp(num_workers, 1, num_lanes)),
      window_(window) {
  assert(sim_.num_lanes() == num_lanes_);
  assert(window_ > SimTime::zero());
  // Worker 0 is the coordinating thread; only the rest get threads. A
  // 1-worker engine is therefore the windowed cycle with zero threads —
  // the byte-identity baseline.
  threads_.reserve(static_cast<std::size_t>(num_workers_ - 1));
  for (int w = 1; w < num_workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardedEngine::enable_worker_recorders(std::size_t capacity) {
  if (!worker_recorders_.empty()) return;
  worker_recorders_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    worker_recorders_.push_back(
        std::make_unique<telemetry::FlightRecorder>(capacity));
  }
}

void ShardedEngine::report(const char* invariant, std::string detail) {
  if (violation_handler_) {
    violation_handler_(invariant, detail);
  } else {
    OO_WARN_ONCE("parallel", "barrier invariant '%s' violated: %s", invariant,
                 detail.c_str());
  }
}

void ShardedEngine::run_until(SimTime until) {
  sim_.clear_stop();
  window_loop(until, /*bounded=*/true);
}

void ShardedEngine::run_all() {
  sim_.clear_stop();
  window_loop(SimTime::max(), /*bounded=*/false);
}

void ShardedEngine::window_loop(SimTime until, bool bounded) {
  // If the control queue has a flight recorder, every worker needs its own
  // ring before the first parallel phase — a shared ring across threads
  // would race on the write head.
  if (sim_.recorder() != nullptr && worker_recorders_.empty()) {
    enable_worker_recorders(sim_.recorder()->capacity());
  }
  const std::int64_t w_ns = window_.ns();
  for (;;) {
    const SimTime m = sim_.min_pending_time();
    if (m == SimTime::max()) break;  // fully drained
    if (bounded && m > until) break;
    // Conservative window on the fixed grid: events never land before
    // their grid slot's start, so aligning T to floor(m/W)*W keeps the
    // window sequence a pure function of event times — independent of
    // worker count and of where previous runs stopped.
    const SimTime start = SimTime::nanos((m.ns() / w_ns) * w_ns);
    SimTime end = start + window_;
    if (bounded && end > until) {
      // Final partial window: legacy run_until(until) executes events with
      // when <= until, so the exclusive bound is until + 1ns.
      end = until + SimTime::nanos(1);
    }
    sim_.advance_all_to(start);
    // Phase 1: control, serial. May touch any lane state directly (the
    // workers are parked) and pushes into lane heaps without staging.
    sim_.run_control_until_exclusive(end);
    if (sim_.stop_requested()) return;
    // Phase 2: lanes, parallel.
    parallel_phase(end);
    // Phase 3: barrier. Clocks stop at `until` on the final partial
    // window (legacy leaves now() == until); the merge still clamps to the
    // nominal exclusive bound so nothing lands inside the just-run window.
    barrier(std::min(end, until), end);
    if (sim_.stop_requested()) return;
  }
  if (bounded) sim_.advance_all_to(until);
}

void ShardedEngine::barrier(SimTime advance_to, SimTime next_start) {
  sim_.advance_all_to(advance_to);
  const auto merged = sim_.merge_outboxes(next_start);
  stats_.cross_delivered += merged.delivered;
  stats_.cross_clamped += merged.clamped;
  ++stats_.windows;
  // Exchange conservation: every message ever staged by a worker must by
  // now have been merged into a target queue, exactly once.
  if (sim_.cross_staged() != stats_.cross_delivered) {
    report("cross_shard_conservation",
           "staged " + std::to_string(sim_.cross_staged()) +
               " cross-lane messages but delivered " +
               std::to_string(stats_.cross_delivered));
  }
  // Workers can't call the invariant sink (it's single-threaded monitor
  // state); their past-schedule clamps were logged per lane and are
  // forwarded here, serially.
  if (sim::InvariantSink* sink = sim_.invariant_sink()) {
    for (const auto& rec : sim_.take_lane_past_schedules()) {
      sink->on_past_schedule(rec.when, rec.now, rec.tag);
    }
  } else {
    sim_.take_lane_past_schedules();
  }
}

void ShardedEngine::run_worker_share(int w, SimTime end) {
  telemetry::FlightRecorder* rec = recorder_for(w);
  for (int lane = w; lane < num_lanes_; lane += num_workers_) {
    sim_.run_lane_until_exclusive(lane, end, rec);
  }
}

void ShardedEngine::parallel_phase(SimTime end) {
  sim_.begin_parallel_phase();
  if (threads_.empty()) {
    try {
      run_worker_share(0, end);
    } catch (...) {
      sim_.end_parallel_phase();
      throw;
    }
    sim_.end_parallel_phase();
    return;
  }
  {
    std::lock_guard lk(mu_);
    phase_end_ = end;
    remaining_ = num_workers_ - 1;
    ++generation_;
  }
  cv_work_.notify_all();
  std::exception_ptr own_exception;
  try {
    run_worker_share(0, end);
  } catch (...) {
    own_exception = std::current_exception();
  }
  std::exception_ptr worker_exception;
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [this] { return remaining_ == 0; });
    worker_exception = std::exchange(pending_exception_, nullptr);
  }
  sim_.end_parallel_phase();
  if (own_exception) std::rethrow_exception(own_exception);
  if (worker_exception) std::rethrow_exception(worker_exception);
}

void ShardedEngine::worker_main(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    SimTime end = SimTime::zero();
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      end = phase_end_;
    }
    try {
      run_worker_share(w, end);
    } catch (...) {
      std::lock_guard lk(mu_);
      if (!pending_exception_) pending_exception_ = std::current_exception();
    }
    {
      std::lock_guard lk(mu_);
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace oo::parallel
