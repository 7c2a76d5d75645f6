// Sharded parallel simulation engine: conservative window synchronization
// over the lane-aware simulator (eventsim/simulator.h).
//
// The slice cadence that unified routing exploits is also a free
// conservative-synchronization lookahead: no packet crosses the fabric in
// less than the minimum cross-ToR latency, so each ToR's event stream can
// run independently inside a window of that width. The engine drives a
// three-phase cycle per window [T, T+W):
//
//   1. control phase (serial)  — events on the control queue with
//      when < T+W run on the coordinating thread. Control owns the
//      controller/quorum/watchdog/fault-plan machinery and may touch any
//      lane's state directly: the workers are parked, and the phase
//      ordering (control before lanes, mutex-fenced) gives the
//      happens-before edge ThreadSanitizer wants.
//   2. parallel phase          — worker w runs lanes {w, w+N, w+2N, ...}
//      with run_lane_until_exclusive(lane, T+W). Same-lane schedules push
//      directly; cross-lane schedules are staged in per-source outboxes.
//   3. barrier (serial)        — all clocks advance to T+W, outboxes merge
//      in canonical (when, src_lane, src_seq) order, conservation is
//      checked, lane past-schedule reports are forwarded to the invariant
//      sink, and the next window start skips ahead to the earliest pending
//      event's grid slot.
//
// Determinism argument: which worker runs a lane never affects that lane's
// event order (each lane has a private clock and sequence counter), and the
// barrier merge order is a pure function of message content — so the
// simulation's result is byte-identical for any worker count, including 1.
// num_workers therefore only chooses a thread layout; shards=1 runs the
// same windowed engine inline with zero threads and is the identity
// baseline the tests pin shards∈{2,4,8} against.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eventsim/simulator.h"

namespace oo::parallel {

class ShardedEngine : public sim::ParallelRunner {
 public:
  // `sim` must already have configure_lanes(num_lanes) applied. `window` is
  // the conservative lookahead W: the minimum virtual time for any event on
  // one lane to cause an event on another (min cross-ToR latency).
  // `num_workers` is clamped to [1, num_lanes]; workers beyond the first
  // get dedicated threads, worker 0 runs on the coordinating thread.
  ShardedEngine(sim::Simulator& sim, int num_lanes, int num_workers,
                SimTime window);
  ~ShardedEngine() override;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // sim::ParallelRunner — installed via Simulator::set_parallel_runner, so
  // existing run_until/run call sites drive the windowed cycle unchanged.
  void run_until(SimTime until) override;
  void run_all() override;

  int num_workers() const { return num_workers_; }
  SimTime window() const { return window_; }

  // Per-shard flight recorders. Created automatically (mirroring the
  // control recorder's capacity) the first time a run starts with tracing
  // enabled, or explicitly here; worker w's lanes record into ring w, so
  // the hot path never shares a ring buffer across threads. The trace
  // exporter stitches them into one Chrome trace with shard tracks.
  void enable_worker_recorders(std::size_t capacity);
  const std::vector<std::unique_ptr<telemetry::FlightRecorder>>&
  worker_recorders() const {
    return worker_recorders_;
  }

  // Cross-shard safety reporting (chaos::InvariantMonitor::attach_parallel
  // installs its violate() here). Detached, a failed barrier check is a
  // warn-once; attached it lands in the monitor's violation list like any
  // other invariant.
  using ViolationHandler =
      std::function<void(const char* invariant, const std::string& detail)>;
  void set_violation_handler(ViolationHandler h) {
    violation_handler_ = std::move(h);
  }

  struct Stats {
    std::int64_t windows = 0;          // barrier cycles completed
    std::int64_t cross_delivered = 0;  // messages merged across lanes
    std::int64_t cross_clamped = 0;    // sub-window hops clamped to window start
  };
  const Stats& stats() const { return stats_; }

 private:
  void window_loop(SimTime until, bool bounded);
  void parallel_phase(SimTime end);
  void run_worker_share(int w, SimTime end);
  void worker_main(int w);
  void barrier(SimTime advance_to, SimTime next_start);
  void report(const char* invariant, std::string detail);
  telemetry::FlightRecorder* recorder_for(int w) const {
    return worker_recorders_.empty() ? nullptr : worker_recorders_[w].get();
  }

  sim::Simulator& sim_;
  const int num_lanes_;
  const int num_workers_;
  const SimTime window_;

  std::vector<std::unique_ptr<telemetry::FlightRecorder>> worker_recorders_;
  ViolationHandler violation_handler_;
  Stats stats_;

  // Worker pool (only when num_workers_ > 1). The generation counter is the
  // phase gate: bumping it under the mutex releases every worker into the
  // current window; the mutex hand-offs on both edges publish all lane
  // state between the serial and parallel phases.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  SimTime phase_end_ = SimTime::zero();
  bool shutdown_ = false;
  std::exception_ptr pending_exception_;
};

}  // namespace oo::parallel
