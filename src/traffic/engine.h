// Streaming production-traffic engine. Synthesizes the flow stream of up
// to millions of independent clients without materializing a flow list:
// each source is ~64 bytes of state (its derived RNG, its next arrival,
// its ON-window end), kept in a min-heap keyed by next arrival time, and
// the engine arms exactly ONE simulator event — at the heap top — per
// wave of arrivals. Memory is O(sources); the number of flows synthesized
// is unbounded.
//
// Sharded runs split that state per worker lane: each source pins to the
// lane of its host's ToR, and every lane owns a private heap, wave timer,
// emission counters/fingerprint, and TransferPool, so arrival waves fire
// in parallel with no shared mutable emission state. Completion-side
// state (FCT aggregates, the fluid solver) stays control-plane: packet
// done callbacks are posted to the control queue by the transports, and
// fluid launches from lanes are mailboxed to control (adding at most one
// sync window of launch latency — identical at every shard count, so the
// stream stays byte-identical). Legacy (unsharded) runs collapse to a
// single lane slot and are bit-for-bit what they were.
//
// Each flow is assigned a fidelity at emission time: sizes below the
// spec's hybrid_threshold run on the packet-level transport (FlowTransfer
// via TransferPool — circuit waits, queueing, drops, retransmission);
// sizes at or above it run on the fluid flow-level solver
// (transport::FluidSolver — analytic rate shares recomputed at slice
// boundaries). An open-loop spec sends the packet-level flows as raw
// packet trains instead (at line rate or at the spec's per-flow pace, no
// acks), which buffer and loss studies need; those flows never complete.
// FCT aggregates are kept per class (mice/elephant, split at 100 KB, the
// Fig. 8 mice cut) with a running mean plus a bounded deterministic
// reservoir for percentiles, so long runs stay sublinear in flow count.
//
// Determinism: every source draws from derive_rng(spec.seed, source_idx),
// a pure function of the spec — the synthesized stream is byte-identical
// across runs, thread counts, and whatever else shares the simulator.
// stream_fingerprint() folds every emitted flow into an order-independent
// hash, which the tests (and the CI jobs-N gate) compare across runs.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/network.h"
#include "traffic/spec.h"
#include "transport/fluid.h"
#include "workload/transfer_pool.h"

namespace oo::traffic {

// Bounded-memory FCT aggregate: exact running mean + a deterministic
// reservoir (algorithm R on a dedicated derived RNG) for percentiles.
class FctAggregate {
 public:
  FctAggregate() : rng_(0, 0) {}
  void init(std::uint64_t seed, std::uint64_t idx, std::size_t cap) {
    rng_ = derive_rng(seed, idx, "traffic.reservoir");
    cap_ = cap;
    reservoir_.reserve(cap);
  }
  void add(double x);
  std::int64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double max() const { return stats_.max(); }
  // Percentile over the reservoir (exact until `cap` samples, then a
  // uniform subsample).
  double percentile(double p) const;
  const std::vector<double>& samples() const { return reservoir_; }

 private:
  RunningStats stats_;
  std::vector<double> reservoir_;
  std::size_t cap_ = 1 << 16;
  Rng rng_;
};

class TrafficEngine {
 public:
  TrafficEngine(core::Network& net, TrafficSpec spec);
  // Safe to destroy with flows in flight (e.g. when the owner swaps in a
  // new engine): the wave timer is cancelled and completion callbacks from
  // transfers that outlive the engine become no-ops via `alive_`.
  ~TrafficEngine();
  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  // Starts the network (idempotent) and arms every source. Call once; a
  // stopped engine cannot be restarted (throws std::logic_error — build a
  // new engine instead, so sources re-arm from a clean heap).
  void start();
  // Stops emitting new flows; in-flight transfers drain on their own.
  void stop();

  // ---- emission-side telemetry ----
  // Sums/folds over the per-lane slots; call from a serial context (post-
  // run, or the control phase of a sharded run).
  std::int64_t flows_emitted() const { return flows_packet() + flows_fluid(); }
  std::int64_t flows_packet() const {
    std::int64_t n = 0;
    for (const auto& l : lanes_) n += l.emitted_packet;
    return n;
  }
  std::int64_t flows_fluid() const {
    std::int64_t n = 0;
    for (const auto& l : lanes_) n += l.emitted_fluid;
    return n;
  }
  std::int64_t bytes_offered() const {
    std::int64_t n = 0;
    for (const auto& l : lanes_) n += l.bytes_offered;
    return n;
  }
  // Order-independent hash over (src, dst, bytes, t) of every emitted
  // flow. Equal spec + equal horizon => equal fingerprint, on any machine,
  // at any campaign --jobs, and at any shard count (the per-lane XOR folds
  // commute, and arrival times are pure functions of the spec).
  std::uint64_t stream_fingerprint() const {
    std::uint64_t fp = 0;
    for (const auto& l : lanes_) fp ^= l.fingerprint;
    return fp;
  }

  // ---- completion-side telemetry (FCT in microseconds) ----
  const FctAggregate& mice_fct_us() const { return mice_; }
  const FctAggregate& elephant_fct_us() const { return elephant_; }
  std::int64_t flows_completed() const {
    return mice_.count() + elephant_.count();
  }
  const transport::FluidSolver& fluid() const { return fluid_; }

  const TrafficSpec& spec() const { return spec_; }

 private:
  struct Source {
    Rng rng;
    SimTime next = SimTime::zero();      // next flow arrival
    SimTime on_until = SimTime::zero();  // end of current ON window
    HostId host = 0;
    // True when `next` is a search resume point (the inversion loop ran out
    // of budget), not an arrival: fire() re-enters next_arrival instead of
    // emitting.
    bool probe = false;
  };
  // (next arrival, source index) min-heap entry.
  struct HeapItem {
    std::int64_t at_ns;
    std::uint32_t idx;
    bool operator>(const HeapItem& o) const {
      if (at_ns != o.at_ns) return at_ns > o.at_ns;
      return idx > o.idx;
    }
  };
  // Per-lane emission slot. Legacy runs use exactly one (index 0, control
  // context); sharded runs use one per ToR, each touched only by its own
  // worker lane after start() seeds it (plus control-phase cancellation in
  // stop(), which never overlaps lane execution).
  struct LaneEmit {
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    sim::ScopedEventHandle wake;  // wave timer, cancelled on destruction
    std::unique_ptr<workload::TransferPool> pool;
    std::int64_t emitted_packet = 0;
    std::int64_t emitted_fluid = 0;
    std::int64_t bytes_offered = 0;
    std::uint64_t fingerprint = 0;
  };

  void arm(std::size_t slot);
  void fire(std::size_t slot);
  void emit(std::size_t slot, Source& s);
  // Open loop: the flow as a raw packet train from the emitting lane.
  void send_train(HostId src, HostId dst, std::int64_t bytes);
  // Next arrival strictly after `from`, honoring the ON/OFF process and
  // the piecewise-constant load curve (exact inhomogeneous-Poisson
  // inversion: draw per constant-rate segment, restart at boundaries).
  // Returns SimTime::max() when the curve pins the rate to zero forever.
  SimTime next_arrival(Source& s, SimTime from);
  HostId pick_dst(NodeId src_tor, Rng& rng);
  std::int64_t sample_size(Rng& rng);
  const std::vector<double>& dst_row(NodeId src_tor);

  core::Network& net_;
  TrafficSpec spec_;
  transport::FluidSolver fluid_;  // control-plane: launches mailboxed there
  // Seeded by start() on the control context; afterwards each Source is
  // touched only by its owning lane's waves.
  std::vector<Source> sources_;
  std::vector<LaneEmit> lanes_;  // sized by start(): 1, or num_tors sharded
  bool running_ = false;
  bool started_ = false;
  // Shared liveness flag captured by completion callbacks handed to the
  // fluid solver / transfer pool; flipped false in the destructor so
  // callbacks from transfers that outlive the engine become no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  double lambda_on_;   // per-source arrivals/sec inside ON windows, scale 1
  double duty_ = 1.0;  // ON fraction of the burst process
  // Cumulative destination-rack weight rows, built lazily per source rack.
  // Sharded: row i is only ever built and read by lane i (sources target
  // from their own rack), so the lazy fill needs no lock.
  std::vector<std::vector<double>> dst_rows_;

  // Completion-side aggregates are control-plane only: packet transports
  // post their done callbacks to the control queue and the fluid solver
  // lives there, so add() is always serial and reservoir order is the
  // canonical control-merge order — deterministic at any shard count.
  FctAggregate mice_;
  FctAggregate elephant_;
  telemetry::Counter* flows_packet_ctr_;
  telemetry::Counter* flows_fluid_ctr_;
  telemetry::Counter* bytes_packet_ctr_;
  telemetry::Counter* bytes_fluid_ctr_;
  telemetry::Counter* arrival_probes_ctr_;
};

}  // namespace oo::traffic
