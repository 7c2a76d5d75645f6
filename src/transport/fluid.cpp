#include "transport/fluid.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "transport/flow_transfer.h"

namespace oo::transport {

namespace {

// Pair key for grouping flows by (src ToR, dst ToR).
inline std::uint64_t pair_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

constexpr double kDoneEps = 0.5;  // bytes; < one bit of serialization time

}  // namespace

FluidSolver::FluidSolver(core::Network& net, std::int64_t mss)
    : net_(net), mss_(mss > 0 ? mss : 8900) {
  const auto& cfg = net_.config();
  const SimTime slice = net_.schedule().slice_duration();
  // Margins the packet path cannot launch into: head guard + sync slack at
  // both ends (core/network.cpp derives the same window), plus one full
  // frame serialization — the last packet of a slice must fit entirely
  // before the window closes.
  const double frame_ns =
      static_cast<double>((mss_ + kHeaderBytes) * 8) / cfg.optical_bw * 1e9;
  const double margins_ns =
      static_cast<double>((cfg.guardband + cfg.sync_error * 2).ns()) +
      frame_ns;
  usable_frac_ =
      std::max(0.0, 1.0 - margins_ns / static_cast<double>(slice.ns()));
  payload_frac_ =
      static_cast<double>(mss_) / static_cast<double>(mss_ + kHeaderBytes);
  // Constant FCT tail after the last payload byte leaves the source NIC:
  // forward delivery (host link, fabric cut-through, host link) plus the
  // ack's return trip over the same path.
  const SimTime one_way =
      core::kHostLinkDelay * 2 + net_.optical().profile().latency_min;
  tail_latency_ = one_way * 2;

  auto& m = net_.sim().metrics();
  launched_ = &m.counter("fluid.launched");
  completed_ = &m.counter("fluid.completed");
  recomputes_ = &m.counter("fluid.recomputes");
}

FluidSolver::~FluidSolver() = default;  // ScopedEventHandle cancels wake_

FlowId FluidSolver::launch(HostId src, HostId dst, std::int64_t bytes,
                           DoneFn done) {
  const SimTime now = net_.sim().now();
  advance(now);
  Flow f;
  f.id = net_.alloc_flow_id();
  f.src = src;
  f.dst = dst;
  f.src_tor = net_.tor_of(src);
  f.dst_tor = net_.tor_of(dst);
  f.remaining = static_cast<double>(bytes > 0 ? bytes : 1);
  f.total = bytes > 0 ? bytes : 1;
  f.start = now;
  f.done = std::move(done);
  const FlowId id = f.id;
  flows_.push_back(std::move(f));
  launched_->inc();
  recompute(now);
  schedule_wake(now);
  return id;
}

void FluidSolver::advance(SimTime now) {
  const double dt = static_cast<double>((now - last_advance_).ns()) / 1e9;
  last_advance_ = now;
  if (dt <= 0.0) return;
  for (Flow& f : flows_) {
    f.remaining = std::max(0.0, f.remaining - f.rate * dt);
  }
}

void FluidSolver::wake() {
  const SimTime now = net_.sim().now();
  advance(now);

  // Pop completed flows; the done callback fires after the constant
  // delivery + ack tail so reported FCTs line up with the packet path's
  // (launch -> final cumulative ack) semantics.
  for (std::size_t i = 0; i < flows_.size();) {
    if (flows_[i].remaining <= kDoneEps) {
      Flow f = std::move(flows_[i]);
      flows_[i] = std::move(flows_.back());
      flows_.pop_back();
      completed_->inc();
      const SimTime fct = now + tail_latency_ - f.start;
      if (f.done) {
        net_.sim().schedule_in(
            tail_latency_,
            [done = std::move(f.done), fct, total = f.total]() mutable {
              done(fct, total);
            },
            "fluid.done");
      }
    } else {
      ++i;
    }
  }

  if (flows_.empty()) return;  // solver idles; next launch re-arms
  recompute(now);
  schedule_wake(now);
}

void FluidSolver::recompute(SimTime now) {
  if (flows_.empty()) return;
  recomputes_->inc();
  const auto& sched = net_.schedule();
  const SliceId slice = sched.slice_at(now);

  // Pass 1: group by ToR pair (optical) and by src ToR (electrical
  // fallback — pairs with no optical slice anywhere in the cycle share the
  // source ToR's electrical uplink).
  std::unordered_map<std::uint64_t, int> pair_count;
  std::unordered_map<NodeId, int> elec_count;
  for (Flow& f : flows_) {
    f.elec = false;
    if (f.src_tor == f.dst_tor) continue;  // intra-rack: host-limited only
    if (pair_has_optical(f.src_tor, f.dst_tor)) {
      ++pair_count[pair_key(f.src_tor, f.dst_tor)];
    } else if (net_.electrical() != nullptr) {
      f.elec = true;
      ++elec_count[f.src_tor];
    }
  }

  const double host_cap =
      net_.config().host_bw / 8.0 * payload_frac_;  // payload bytes/sec
  const double elec_cap = net_.config().electrical_bw / 8.0 * payload_frac_;

  // Pass 2: per-flow candidate rate from the fabric share.
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (f.src_tor == f.dst_tor) {
      f.rate = host_cap;  // never traverses a fabric
    } else if (f.elec) {
      f.rate = elec_cap / elec_count[f.src_tor];
    } else {
      const double cap = pair_capacity(f.src_tor, f.dst_tor, slice);
      f.rate = cap > 0.0 ? cap / pair_count[pair_key(f.src_tor, f.dst_tor)]
                         : 0.0;
    }
  }

  // Electrical egress ports contend too: scale each dst ToR's electrical
  // flows when their sum exceeds the egress port's capacity.
  std::unordered_map<NodeId, double> elec_out_sum;
  for (const Flow& f : flows_) {
    if (f.elec) elec_out_sum[f.dst_tor] += f.rate;
  }
  for (Flow& f : flows_) {
    if (!f.elec) continue;
    const double s = elec_out_sum[f.dst_tor];
    if (s > elec_cap) f.rate *= elec_cap / s;
  }

  // Pass 3: clamp by NIC rates — a host's fluid flows cannot jointly
  // exceed its line rate on either end. One proportional scaling pass per
  // side (no redistribution of the freed share; documented approximation).
  std::unordered_map<HostId, double> src_sum;
  for (const Flow& f : flows_) src_sum[f.src] += f.rate;
  for (Flow& f : flows_) {
    const double s = src_sum[f.src];
    if (s > host_cap) f.rate *= host_cap / s;
  }
  std::unordered_map<HostId, double> dst_sum;
  for (const Flow& f : flows_) dst_sum[f.dst] += f.rate;
  for (Flow& f : flows_) {
    const double s = dst_sum[f.dst];
    if (s > host_cap) f.rate *= host_cap / s;
  }

  if (auto* rec = net_.sim().recorder()) {
    double agg = 0.0;
    for (const Flow& f : flows_) agg += f.rate;
    rec->fluid_recompute(now, static_cast<std::int64_t>(flows_.size()),
                         static_cast<std::int64_t>(agg * 8.0 / 1e6));
  }
}

void FluidSolver::schedule_wake(SimTime now) {
  // Next rate-change boundary: the global slice edge. Completions at
  // current rates may land earlier.
  const auto& sched = net_.schedule();
  SimTime next = sched.slice_start(sched.abs_slice_at(now) + 1);
  for (const Flow& f : flows_) {
    if (f.rate <= 0.0) continue;
    const double dt_ns = (f.remaining / f.rate) * 1e9;
    const SimTime done =
        now + SimTime::nanos(static_cast<std::int64_t>(std::ceil(dt_ns)));
    if (done < next) next = done;
  }
  if (next <= now) next = now + SimTime::nanos(1);
  // Assigning through the scoped handle cancels any previously armed wake.
  wake_ = net_.sim().schedule_at(next, [this] { wake(); }, "fluid.wake");
}

std::string FluidSolver::conservation_check() const {
  const double host_cap = net_.config().host_bw / 8.0 * payload_frac_;
  for (const Flow& f : flows_) {
    if (f.remaining < 0.0 || f.remaining > static_cast<double>(f.total)) {
      return "fluid flow " + std::to_string(f.id) + ": remaining " +
             std::to_string(f.remaining) + " outside [0, " +
             std::to_string(f.total) + "]";
    }
    // 0.1% slack covers the proportional-clamp rounding in recompute().
    if (f.rate < 0.0 || f.rate > host_cap * 1.001) {
      return "fluid flow " + std::to_string(f.id) + ": rate " +
             std::to_string(f.rate) + " outside [0, " +
             std::to_string(host_cap) + "]";
    }
  }
  return {};
}

double FluidSolver::pair_capacity(NodeId src_tor, NodeId dst_tor,
                                  SliceId slice) const {
  const auto& sched = net_.schedule();
  auto& fabric = net_.optical();
  int lanes = 0;
  for (const auto& [peer, port] : sched.neighbors(src_tor, slice)) {
    if (peer != dst_tor) continue;
    if (fabric.port_failed(src_tor, port)) continue;
    const auto ep = sched.peer(src_tor, port, slice);
    if (ep && fabric.port_failed(ep->node, ep->port)) continue;
    lanes += 1;
  }
  if (lanes == 0) return 0.0;
  return lanes * net_.config().optical_bw / 8.0 * usable_frac_ *
         payload_frac_;
}

bool FluidSolver::pair_has_optical(NodeId src_tor, NodeId dst_tor) const {
  return net_.schedule().next_direct(src_tor, dst_tor, 0).has_value();
}

}  // namespace oo::transport
