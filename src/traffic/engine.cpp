#include "traffic/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.h"

namespace oo::traffic {

namespace {

constexpr std::int64_t kMiceThreshold = 100'000;  // Fig. 8's mice cut

// A lane's emission count fits in kCountBits (2^40 flows is far beyond any
// run); a trace ordinal keeps its lane tag above them.
constexpr int kCountBits = 40;

// What a packet flow's completion needs, in one word, so that its closure
// (this word and the engine) stays inline in std::function.
struct PacketFlow {
  std::uint64_t count : kCountBits;  // the lane's emission count
  std::uint64_t src_tor : 23;        // sharded: also the emitting slot
  std::uint64_t mouse : 1;
};
static_assert(sizeof(PacketFlow) == sizeof(std::uint64_t));

std::int64_t ceil_ns(double ns) {
  const double c = std::ceil(ns);
  return c < 1.0 ? 1 : static_cast<std::int64_t>(c);
}

}  // namespace

void FctAggregate::add(double x) {
  stats_.add(x);
  sorted_valid_ = false;
  // Algorithm R on a dedicated derived stream: deterministic for a
  // deterministic arrival order, bounded at `cap_` samples.
  if (reservoir_.size() < cap_) {
    reservoir_.push_back(x);
  } else {
    const auto n = static_cast<std::uint32_t>(
        std::min<std::int64_t>(stats_.count(),
                               std::numeric_limits<std::uint32_t>::max()));
    const std::uint32_t j = rng_.uniform(n);
    if (j < cap_) reservoir_[j] = x;
  }
}

double FctAggregate::percentile(double p) const {
  if (!sorted_valid_) {
    sorted_ = reservoir_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return percentile_of_sorted(sorted_, p);
}

TrafficEngine::TrafficEngine(core::Network& net, TrafficSpec spec)
    : net_(net),
      spec_(std::move(spec)),
      fluid_(net, spec_.transfer.mss) {
  validate(spec_);
  if (net_.num_tors() < 2) {
    throw std::invalid_argument(
        "TrafficEngine: needs at least two racks (sources never target "
        "their own rack)");
  }
  if (spec_.burst.enabled) {
    const double on = static_cast<double>(spec_.burst.on_mean.ns());
    const double off = static_cast<double>(spec_.burst.off_mean.ns());
    duty_ = on / (on + off);
  }
  const double mean = mean_size(spec_.size);
  const double offered_bps = spec_.load * net_.config().host_bw *
                             static_cast<double>(net_.num_hosts());
  const double lambda_total = offered_bps / (kBitsPerByte * mean);
  lambda_on_ =
      lambda_total / static_cast<double>(spec_.sources) / duty_;

  mice_.init(spec_.seed, 0, 1 << 16);
  elephant_.init(spec_.seed, 1, 1 << 16);
  dst_rows_.resize(static_cast<std::size_t>(net_.num_tors()));

  auto& m = net_.sim().metrics();
  flows_packet_ctr_ = &m.counter("traffic.flows", {{"fidelity", "packet"}});
  flows_fluid_ctr_ = &m.counter("traffic.flows", {{"fidelity", "fluid"}});
  bytes_packet_ctr_ = &m.counter("traffic.bytes", {{"fidelity", "packet"}});
  bytes_fluid_ctr_ = &m.counter("traffic.bytes", {{"fidelity", "fluid"}});
  arrival_probes_ctr_ = &m.counter("traffic.arrival_probes");
}

TrafficEngine::~TrafficEngine() {
  stop();
  // Fluid launches and completions may be queued past this engine's
  // lifetime; they check this flag before touching the (now destroyed)
  // solver and aggregates. The pools, destroyed with lanes_, drop the
  // packet completions themselves.
  *alive_ = false;
}

void TrafficEngine::start() {
  if (running_) return;
  if (started_) {
    // Restarting after stop() would re-seed sources_ while heap_ still
    // holds the old entries, double-arming every source.
    throw std::logic_error(
        "TrafficEngine::start: engine already ran; construct a new engine "
        "instead of restarting");
  }
  started_ = true;
  running_ = true;
  net_.start();
  const bool sharded = net_.sim().sharded();
  lanes_.resize(sharded ? static_cast<std::size_t>(net_.num_tors()) : 1);
  for (auto& l : lanes_) {
    l.pool = std::make_unique<workload::TransferPool>(net_);
  }
  const SimTime now = net_.sim().now();
  const int num_hosts = net_.num_hosts();
  sources_.resize(static_cast<std::size_t>(spec_.sources));
  for (std::int64_t i = 0; i < spec_.sources; ++i) {
    Source& s = sources_[static_cast<std::size_t>(i)];
    s.rng = derive_rng(spec_.seed, static_cast<std::uint64_t>(i),
                       "traffic.src");
    s.host = static_cast<HostId>(i % num_hosts);
    if (spec_.burst.enabled) {
      // Start the ON/OFF process in steady state: ON with probability
      // `duty`, mid-window.
      if (s.rng.uniform01() < duty_) {
        s.on_until = now + SimTime::nanos(ceil_ns(s.rng.exponential(
                               static_cast<double>(spec_.burst.on_mean.ns()))));
      } else {
        s.on_until = now;  // immediately OFF; next_arrival draws the gap
      }
    } else {
      s.on_until = SimTime::max();
    }
    s.next = next_arrival(s, now);
    if (s.next != SimTime::max()) {
      // Sources pin to the lane of their host's ToR; everything after this
      // seeding loop touches the source from that lane only.
      const std::size_t slot =
          sharded ? static_cast<std::size_t>(net_.tor_of(s.host)) : 0;
      lanes_[slot].heap.push({s.next.ns(), static_cast<std::uint32_t>(i)});
    }
  }
  for (std::size_t slot = 0; slot < lanes_.size(); ++slot) arm(slot);
}

void TrafficEngine::stop() {
  // Runs on the control context (or post-run); cancelling a lane's wave
  // timer here never overlaps that lane's execution — phases alternate.
  running_ = false;
  for (auto& l : lanes_) l.wake.cancel();
}

void TrafficEngine::arm(std::size_t slot) {
  LaneEmit& le = lanes_[slot];
  if (!running_ || le.heap.empty()) return;
  // Scoped-handle assignment cancels the previous wave timer. Slot i runs
  // on lane i (the legacy engine ignores the lane), so both the initial
  // arm from control and re-arms from fire() push directly and return a
  // real, cancellable handle.
  le.wake = net_.sim().schedule_at_lane(
      static_cast<int>(slot), SimTime::nanos(le.heap.top().at_ns),
      [this, slot] { fire(slot); }, "traffic.wave");
}

void TrafficEngine::fire(std::size_t slot) {
  if (!running_) return;
  LaneEmit& le = lanes_[slot];
  const SimTime now = net_.sim().now();
  // Drain the whole due wave under this one event.
  while (!le.heap.empty() && le.heap.top().at_ns <= now.ns()) {
    const std::uint32_t idx = le.heap.top().idx;
    le.heap.pop();
    Source& s = sources_[idx];
    if (!s.probe) emit(slot, s);  // a probe resumes without an arrival
    s.next = next_arrival(s, now);
    if (s.next != SimTime::max()) le.heap.push({s.next.ns(), idx});
  }
  arm(slot);
}

void TrafficEngine::emit(std::size_t slot, Source& s) {
  LaneEmit& le = lanes_[slot];
  const SimTime now = net_.sim().now();
  const HostId src = s.host;
  const NodeId src_tor = net_.tor_of(src);
  const HostId dst = pick_dst(src_tor, s.rng);
  const std::int64_t bytes = sample_size(s.rng);
  const bool fluid = bytes >= spec_.hybrid_threshold;
  const bool mouse = bytes < kMiceThreshold;
  const std::int64_t lane_count = le.emitted_packet + le.emitted_fluid;
  const std::int64_t ordinal = trace_ordinal(slot, lane_count);

  le.bytes_offered += bytes;
  le.fingerprint ^= mix64(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
       static_cast<std::uint32_t>(dst)) ^
      mix64(static_cast<std::uint64_t>(bytes)) ^
      mix64(static_cast<std::uint64_t>(now.ns())));

  if (auto* rec = net_.sim().recorder()) {
    rec->flow_start(now, src_tor, fluid, ordinal, bytes);
  }
  // Completions always land on the control context (packet transports
  // post theirs to the control queue; the fluid solver already lives
  // there), so the aggregates stay serial.
  if (fluid) {
    ++le.emitted_fluid;
    flows_fluid_ctr_->inc();
    bytes_fluid_ctr_->inc(bytes);
    // The fluid solver is shared control-plane state (one rate-share
    // computation for the whole fabric), so a lane can't call into it
    // directly: mailbox the launch to the control queue. The barrier
    // clamp delays the launch by at most one sync window — the same
    // amount at every shard count, so results stay byte-identical. Both
    // the mailboxed launch and the solver's posted completion can outlive
    // this engine (its owner swapped in a new one), so both check `alive`.
    net_.sim().run_on(
        sim::Simulator::kControlLane,
        [this, alive = alive_, src, dst, bytes, mouse, src_tor, ordinal]() {
          if (!*alive) return;
          fluid_.launch(src, dst, bytes,
                        [this, alive, mouse, src_tor, ordinal](
                            SimTime fct, std::int64_t) {
                          if (*alive) {
                            flow_done(mouse, true, src_tor, ordinal, fct);
                          }
                        });
        },
        "traffic.fluid");
  } else {
    ++le.emitted_packet;
    flows_packet_ctr_->inc();
    bytes_packet_ctr_->inc(bytes);
    if (spec_.open_loop) {
      send_train(src, dst, bytes);
    } else {
      // The pool dies with this engine and drops the completions of its
      // flows from then on, so this closure needs no liveness check.
      const PacketFlow f{static_cast<std::uint64_t>(lane_count),
                         static_cast<std::uint64_t>(src_tor), mouse};
      le.pool->launch(src, dst, bytes, spec_.transfer,
                      [this, f](SimTime fct, std::int64_t) {
                        flow_done(f.mouse, false, f.src_tor,
                                  trace_ordinal(f.src_tor, f.count), fct);
                      });
    }
  }
}

std::int64_t TrafficEngine::trace_ordinal(std::size_t slot,
                                          std::int64_t count) const {
  // Legacy: the plain global emission count (one lane => same value as
  // before). Sharded: lane-tagged so per-lane counts stay disjoint without
  // a shared counter, mirroring the packet-id scheme.
  if (lanes_.size() == 1) return count;
  return ((static_cast<std::int64_t>(slot) + 1) << kCountBits) | count;
}

void TrafficEngine::flow_done(bool mouse, bool fluid, NodeId src_tor,
                              std::int64_t ordinal, SimTime fct) {
  if (mouse) {
    mice_.add(fct.us());
  } else {
    elephant_.add(fct.us());
  }
  if (auto* rec = net_.sim().recorder()) {
    rec->flow_complete(net_.sim().now(), src_tor, fluid, ordinal, fct.ns());
  }
}

void TrafficEngine::send_train(HostId src, HostId dst, std::int64_t bytes) {
  const FlowId flow = net_.alloc_flow_id();
  const std::int64_t mss = spec_.transfer.mss;
  // Packets enter the host stack back to back (line rate) or spread at the
  // flow pace. Sharded, the source host lives on the emitting lane, so the
  // paced sends land on that lane's queue. They hold the network, not the
  // engine, so an engine destroyed mid-train leaves nothing dangling.
  const SimTime gap =
      spec_.flow_pace_bps > 0
          ? SimTime::nanos(
                serialization_ns(mss + transport::kHeaderBytes,
                                 spec_.flow_pace_bps))
          : SimTime::zero();
  SimTime at = net_.sim().now();
  for (std::int64_t remaining = bytes; remaining > 0; remaining -= mss) {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = flow;
    p.dst_host = dst;
    p.payload = std::min(remaining, mss);
    p.size_bytes = p.payload + transport::kHeaderBytes;
    if (gap == SimTime::zero()) {
      net_.host(src).send(std::move(p));
    } else {
      net_.sim().schedule_at(
          at,
          [net = &net_, src, pkt = std::move(p)]() mutable {
            net->host(src).send(std::move(pkt));
          },
          "traffic.paced_send");
      at += gap;
    }
  }
}

SimTime TrafficEngine::next_arrival(Source& s, SimTime from) {
  const bool burst = spec_.burst.enabled;
  SimTime t = from;
  s.probe = false;
  // Exact inhomogeneous-Poisson inversion over piecewise-constant rate:
  // draw an exponential gap at the current rate; an arrival past the next
  // rate boundary is discarded and redrawn from the boundary (valid by
  // memorylessness). Zero-rate windows are skipped analytically.
  for (int guard = 0; guard < 100'000; ++guard) {
    if (burst && t >= s.on_until) {
      const SimTime off = SimTime::nanos(ceil_ns(s.rng.exponential(
          static_cast<double>(spec_.burst.off_mean.ns()))));
      t = t + off;
      s.on_until = t + SimTime::nanos(ceil_ns(s.rng.exponential(
                           static_cast<double>(spec_.burst.on_mean.ns()))));
    }
    const double scale = curve_scale(spec_.curve, t.sec());
    const double change_sec = curve_next_change(spec_.curve, t.sec());
    const SimTime curve_limit =
        std::isinf(change_sec)
            ? SimTime::max()
            : SimTime::nanos(static_cast<std::int64_t>(change_sec * 1e9));
    if (scale <= 0.0) {
      if (curve_limit == SimTime::max()) return SimTime::max();  // dormant
      t = curve_limit;
      continue;
    }
    SimTime limit = curve_limit;
    if (burst && s.on_until < limit) limit = s.on_until;
    const double rate = lambda_on_ * scale;  // arrivals/sec
    const SimTime cand =
        t + SimTime::nanos(ceil_ns(s.rng.exponential(1e9 / rate)));
    if (cand <= limit) return cand;
    t = limit;
  }
  // Budget exhausted (legitimate with many low-rate sources and short
  // ON/OFF cycles). Retiring the source here would silently shed offered
  // load; instead park a resume probe at the reached time so the search
  // continues on the next wave, and make the event cost visible.
  s.probe = true;
  arrival_probes_ctr_->inc();
  OO_WARN_ONCE("traffic",
               "arrival search exceeded its per-wave budget; resuming via "
               "probe events (see traffic.arrival_probes). Consider fewer "
               "sources or longer burst cycles.");
  return t > from ? t : from + SimTime::nanos(1);
}

const std::vector<double>& TrafficEngine::dst_row(NodeId src_tor) {
  auto& row = dst_rows_[static_cast<std::size_t>(src_tor)];
  if (!row.empty()) return row;
  const int tors = net_.num_tors();
  row.resize(static_cast<std::size_t>(tors));
  double cum = 0.0;
  for (NodeId d = 0; d < tors; ++d) {
    double w = 0.0;
    if (d != src_tor) {
      switch (spec_.skew.kind) {
        case SkewSpec::Kind::Uniform:
          w = 1.0;
          break;
        case SkewSpec::Kind::Hotspot: {
          const int hot = std::min(spec_.skew.hot_tors, tors);
          const int cold = tors - hot;
          if (d < hot) {
            w = spec_.skew.hot_weight / static_cast<double>(hot);
          } else {
            w = cold > 0 ? (1.0 - spec_.skew.hot_weight) /
                               static_cast<double>(cold)
                         : 0.0;
          }
          break;
        }
        case SkewSpec::Kind::Zipf:
          w = 1.0 / std::pow(static_cast<double>(d + 1), spec_.skew.zipf_s);
          break;
      }
    }
    cum += w;
    row[static_cast<std::size_t>(d)] = cum;
  }
  if (cum <= 0.0) {
    // Degenerate skew — e.g. this source's own rack is the only hot rack
    // at hot_weight 1.0 — leaves every weight zero, which upper_bound
    // would misroute to the last rack. Fall back to uniform over the
    // other racks.
    cum = 0.0;
    for (NodeId d = 0; d < tors; ++d) {
      if (d != src_tor) cum += 1.0;
      row[static_cast<std::size_t>(d)] = cum;
    }
  }
  return row;
}

HostId TrafficEngine::pick_dst(NodeId src_tor, Rng& rng) {
  const auto& row = dst_row(src_tor);
  const double total = row.back();
  const double u = rng.uniform01() * total;
  const auto it = std::upper_bound(row.begin(), row.end(), u);
  NodeId dst_tor = static_cast<NodeId>(
      std::min<std::size_t>(static_cast<std::size_t>(it - row.begin()),
                            row.size() - 1));
  if (dst_tor == src_tor) dst_tor = (dst_tor + 1) % net_.num_tors();
  const int hpt = net_.config().hosts_per_tor;
  const int local =
      hpt > 1 ? static_cast<int>(rng.uniform(static_cast<std::uint32_t>(hpt)))
              : 0;
  return net_.host_id(dst_tor, local);
}

std::int64_t TrafficEngine::sample_size(Rng& rng) {
  const bool hh = spec_.size.hh_fraction > 0.0 &&
                  rng.uniform01() < spec_.size.hh_fraction;
  const auto& cdf = hh ? spec_.size.hh : spec_.size.base;
  const double sz = workload::sample_flow_size(cdf, rng);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(sz));
}

}  // namespace oo::traffic
