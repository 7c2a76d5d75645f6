#include "core/network.h"

#include <algorithm>
#include <cassert>

namespace oo::core {

namespace {

// Parallel electrical fabric: ToR-to-ToR transit time and per-egress
// backlog capacity.
constexpr SimTime kElectricalTransit = SimTime::micros(1);
constexpr std::int64_t kElectricalBacklog = 16 << 20;
// EQO (congestion detection) update interval.
constexpr SimTime kEqoInterval = SimTime::nanos(50);
// Control-plane latency of a traffic push-back (§5.2).
constexpr SimTime kPushbackDelay = SimTime::micros(2);
// How early an offloaded packet returns before its slice starts (§5.2).
constexpr SimTime kOffloadLead = SimTime::micros(10);

}  // namespace

// ---------------------------------------------------------------------------
// Host

Host::Host(Network& net, HostId id, NodeId tor)
    : net_(net),
      id_(id),
      tor_(tor),
      rng_(net.fork_rng()) {
  dsts_.reserve(static_cast<std::size_t>(net_.num_tors()));
  for (int i = 0; i < net_.num_tors(); ++i) {
    dsts_.emplace_back(net_.config().host_segment_queue);
  }
}

Host::DstState& Host::dst_state(NodeId dst) {
  return dsts_[static_cast<std::size_t>(dst)];
}

void Host::bind_flow(FlowId flow, ReceiveFn sink) {
  // flows_ is read by deliver() on this host's ToR lane. A bind issued from
  // another context (transports launch from the control queue) crosses onto
  // that lane; control-phase pushes land before the current window's lane
  // events run, and the first data packet trails the bind by at least the
  // fabric latency (>= one window), so the sink is always installed in time.
  net_.sim().run_on(
      tor_,
      [this, flow, s = std::move(sink)]() mutable {
        flows_.assign(flow, std::move(s));
      },
      "host.bind");
}

void Host::unbind_flow(FlowId flow) {
  net_.sim().run_on(
      tor_, [this, flow]() { flows_.erase(flow); }, "host.unbind");
}

SimTime Host::stack_delay() {
  // libvma userspace path: low, tight latency; kernel path: higher base with
  // a heavy exponential tail (Fig. 14's comparison baseline).
  if (net_.config().host_stack == HostStack::Libvma) {
    const double d = rng_.gaussian(1500.0, 120.0);
    return SimTime::nanos(std::max<std::int64_t>(
        800, static_cast<std::int64_t>(d)));
  }
  const double d = 20000.0 + rng_.exponential(8000.0);
  return SimTime::nanos(static_cast<std::int64_t>(d));
}

bool Host::send(Packet&& p) {
  p.src_host = id_;
  p.src_node = tor_;
  if (p.dst_node == kInvalidNode && p.dst_host >= 0) {
    p.dst_node = net_.tor_of(p.dst_host);
  }
  assert(p.dst_node != kInvalidNode);
  if (p.id == 0) p.id = net_.next_packet_id();
  if (p.created == SimTime::zero()) p.created = net_.sim().now();
  if (send_hook_) send_hook_(p);

  auto& st = dst_state(p.dst_node);
  st.sent_bytes += p.size_bytes;
  const bool blocked = st.paused ||
                       net_.sim().now() < st.pushback_until ||
                       !st.segq.empty();
  if (blocked) {
    if (!st.segq.enqueue(std::move(p))) {
      st.sender_blocked = true;
      if (auto* tr = net_.sim().recorder()) {
        tr->drop(net_.sim().now(), telemetry::DropReason::HostSegq, tor_, -1,
                 p.id, p.size_bytes);
      }
      return false;  // segment queue full: application backpressure
    }
    start_pump();  // drains as soon as (and only while) the path is open
    return true;
  }
  stack_delay_send(std::move(p));
  return true;
}

bool Host::would_block(NodeId dst) const {
  const auto& st = dsts_[static_cast<std::size_t>(dst)];
  return st.paused || net_.sim().now() < st.pushback_until ||
         st.segq.free_bytes() <= 0;
}

void Host::stack_delay_send(Packet&& p) {
  // Single injection funnel: every host-originated packet (fast path and
  // segq drain alike) passes here exactly once, so this counter is the
  // "injected" side of the packet-conservation invariant. Relaxed atomic:
  // host stacks run on per-ToR worker lanes when sharded, and the exact
  // value is only read from serial phases (ordered by the engine barrier).
  net_.packets_injected_.fetch_add(1, std::memory_order_relaxed);
  // The stack adds per-packet latency but never reorders a host's own
  // submissions (it is a FIFO pipeline): releases are monotonic.
  SimTime release = net_.sim().now() + stack_delay();
  if (release < stack_last_release_) release = stack_last_release_;
  stack_last_release_ = release;
  net_.sim().schedule_at(
      release,
      [this, pkt = std::move(p)]() mutable {
        up_link_->transmit(std::move(pkt));
      },
      "host.stack");
}

void Host::pause_dst(NodeId dst) { dst_state(dst).paused = true; }

void Host::resume_dst(NodeId dst) {
  auto& st = dst_state(dst);
  if (!st.paused) return;
  st.paused = false;
  try_drain(dst);
}

void Host::pushback_dst(NodeId dst, SimTime until) {
  auto& st = dst_state(dst);
  if (until <= net_.sim().now()) return;
  st.pushback_until = std::max(st.pushback_until, until);
  net_.sim().schedule_at(
      st.pushback_until, [this, dst]() { try_drain(dst); }, "pushback");
}

bool Host::can_buffer(NodeId dst, std::int64_t bytes) const {
  const auto& st = dsts_[static_cast<std::size_t>(dst)];
  const bool fast_path = !st.paused &&
                         net_.sim().now() >= st.pushback_until &&
                         st.segq.empty();
  return fast_path || st.segq.free_bytes() >= bytes;
}

void Host::try_drain(NodeId dst) {
  (void)dst;
  start_pump();
}

void Host::start_pump() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  net_.sim().schedule_at(net_.sim().now(), [this]() { pump(); },
                         "host.pump");
}

// Drains parked segment queues at (at most) host line rate, round-robin
// across destinations, stopping the instant a destination is paused again —
// the vma stack transmits only while its circuit window is open (§5.2).
void Host::pump() {
  pump_scheduled_ = false;
  const SimTime now = net_.sim().now();
  const std::size_t n = dsts_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (pump_rr_ + k) % n;
    auto& st = dsts_[idx];
    if (st.paused || now < st.pushback_until || st.segq.empty()) continue;
    auto p = st.segq.dequeue();
    pump_rr_ = (idx + 1) % n;
    const SimTime pace = SimTime::nanos(
        serialization_ns(p->size_bytes, net_.config().host_bw));
    if (st.sender_blocked && st.segq.free_bytes() >= p->size_bytes) {
      st.sender_blocked = false;
      if (unblock_) unblock_(static_cast<NodeId>(idx));
    }
    stack_delay_send(std::move(*p));
    pump_scheduled_ = true;
    net_.sim().schedule_in(pace, [this]() { pump(); }, "host.pump");
    return;
  }
}

bool Host::paused(NodeId dst) const {
  return dsts_[static_cast<std::size_t>(dst)].paused;
}

std::int64_t Host::segment_bytes(NodeId dst) const {
  return dsts_[static_cast<std::size_t>(dst)].segq.bytes();
}

std::int64_t Host::sent_bytes_to(NodeId dst) const {
  return dsts_[static_cast<std::size_t>(dst)].sent_bytes;
}

std::vector<std::int64_t> Host::take_traffic_counters() {
  std::vector<std::int64_t> out;
  out.reserve(dsts_.size());
  for (auto& st : dsts_) {
    out.push_back(st.sent_bytes);
    st.sent_bytes = 0;
  }
  return out;
}

void Host::deliver(Packet&& p) {
  if (p.offloaded) {
    // Buffer offloading (§5.2): park the packet, return it to the switch
    // just before its slice. The dedicated vma app isolates this from the
    // main data path; it still shares the physical host links.
    offload_stored_bytes_ += p.size_bytes;
    ++offload_stored_packets_;
    const SimTime slice_begin =
        net_.schedule().slice_start(p.offload_abs_slice);
    const SimTime lead = kOffloadLead + kHostLinkDelay + stack_delay();
    const SimTime return_at =
        std::max(net_.sim().now(), slice_begin - lead);
    net_.sim().schedule_at(
        return_at,
        [this, pkt = std::move(p)]() mutable {
          offload_stored_bytes_ -= pkt.size_bytes;
          --offload_stored_packets_;
          up_link_->transmit(std::move(pkt));
        },
        "host.offload");
    return;
  }
  if (p.type == PacketType::Pushback) {
    // src_node carries the congested destination switch; offload_abs_slice
    // carries the blocked absolute slice (§5.2 traffic push-back).
    const SimTime until = net_.schedule().slice_start(p.offload_abs_slice + 1);
    pushback_dst(p.src_node, until);
    return;
  }
  if (p.type == PacketType::Data && net_.delivery_probe()) {
    net_.delivery_probe()(p);
  }
  if (ReceiveFn* sink = flows_.find(p.flow)) {
    (*sink)(std::move(p));
  } else if (default_sink_) {
    default_sink_(std::move(p));
  }
}

// ---------------------------------------------------------------------------
// TorSwitch

TorSwitch::TorSwitch(Network& net, NodeId id)
    : net_(net), id_(id), rng_(net.fork_rng()) {
  auto& metrics = net_.sim().metrics();
  const telemetry::Labels node_label = {{"node", std::to_string(id)}};
  drops_no_route_ = &metrics.counter(
      "tor.drops", {{"class", "no_route"}, {"node", std::to_string(id)}});
  drops_congestion_ = &metrics.counter(
      "tor.drops", {{"class", "congestion"}, {"node", std::to_string(id)}});
  slice_misses_ = &metrics.counter("tor.slice_misses", node_label);
  wrong_slice_arrivals_ = &metrics.counter("tor.wrong_slice", node_label);
  const auto& cfg = net_.config();
  const auto& sched = net_.schedule();
  int k = cfg.calendar_queues;
  if (k <= 0) k = std::min<int>(sched.period(), 128);
  uplinks_.resize(static_cast<std::size_t>(sched.uplinks()));
  for (auto& u : uplinks_) {
    u.fifo = net::FifoQueue{kFifoCapacity};
    if (cfg.calendar_mode) {
      u.cal = std::make_unique<CalendarQueuePort>(
          k, cfg.queue_capacity,
          &metrics.counter("calendar.rank_overflows"),
          &metrics.counter("calendar.full_rejects"));
      if (cfg.congestion_detection) {
        u.eqo = std::make_unique<QueueOccupancyEstimator>(
            k, cfg.optical_bw, kEqoInterval);
      }
    }
  }
}

SliceId TorSwitch::current_slice() const {
  return net_.schedule().slice_of(local_abs_slice_);
}

std::int64_t TorSwitch::current_abs_slice() const { return local_abs_slice_; }

SimTime TorSwitch::window_start() const {
  return local_slice_start_ + net_.head_guard_ + net_.node_guard_extra(id_);
}

SimTime TorSwitch::window_end() const {
  return local_slice_start_ + net_.schedule().slice_duration() -
         net_.tail_margin_ - net_.node_guard_extra(id_);
}

void TorSwitch::from_host(Packet&& p) {
  if (p.offloaded) {
    handle_offload_return(std::move(p));
    return;
  }
  route(std::move(p));
}

void TorSwitch::from_optical(Packet&& p, PortId in_port) {
  // Per-uplink rx ledger (owning-lane write; the health scanner reads it
  // from the control queue at slice barriers, like the invariant census).
  uplinks_[static_cast<std::size_t>(in_port)].rx_bytes += p.size_bytes;
  // Receive-side desync symptom: a calendar-scheduled packet should arrive
  // in the slice it departed in, or the next one (fabric latency is well
  // under a slice) — on *this node's* clock. Anything else means either the
  // sender launched into the wrong circuit or our own rotation is skewed;
  // the observer cannot tell which, so the symptom is self-attributed and
  // the watchdog treats it as corroborating (widen-only) evidence.
  const auto& cfg = net_.config();
  if (cfg.calendar_mode && net_.schedule().period() > 1 &&
      p.intended_slice != kAnySlice) {
    const SliceId cur = current_slice();
    const SliceId next = net_.schedule().slice_of(
        static_cast<std::int64_t>(p.intended_slice) + 1);
    if (cur != p.intended_slice && cur != next) {
      wrong_slice_arrivals_->inc();
      if (auto* tr = net_.sim().recorder()) {
        tr->wrong_slice(net_.sim().now(), id_, in_port, p.id,
                        p.intended_slice);
      }
      net_.notify_wrong_slice(id_, net_.sim().now());
    }
  }
  route(std::move(p));
}

void TorSwitch::from_electrical(Packet&& p) { route(std::move(p)); }

void TorSwitch::deliver_local(Packet&& p) {
  ++delivered_local_;
  const int local = p.dst_host - net_.host_id(id_, 0);
  assert(local >= 0 && local < static_cast<int>(downlinks_.size()));
  downlinks_[static_cast<std::size_t>(local)]->transmit(std::move(p));
}

void TorSwitch::route(Packet&& p) {
  if (p.dst_node == id_) {
    deliver_local(std::move(p));
    return;
  }
  const SliceId arr = current_slice();
  if (p.has_source_route()) {
    const net::SourceHop hop = p.next_hop();
    p.pop_hop();
    apply_action(std::move(p), hop, arr);
    return;
  }
  const TftEntry* entry = tft_.lookup(arr, p.src_node, p.dst_node);
  if (entry == nullptr) {
    drops_no_route_->inc();
    if (auto* tr = net_.sim().recorder()) {
      tr->drop(net_.sim().now(), telemetry::DropReason::NoRoute, id_, -1,
               p.id, p.size_bytes);
    }
    return;
  }
  std::uint32_t hash = 0;
  switch (mp_mode_) {
    case MultipathMode::PerPacket:
      // Ingress-timestamp hashing (§3): unique per packet.
      hash = hash_mix(static_cast<std::uint64_t>(p.id) * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(net_.sim().now().ns()));
      break;
    case MultipathMode::PerFlow:
      hash = hash_mix(static_cast<std::uint64_t>(p.flow));
      break;
    case MultipathMode::None:
      break;
  }
  const TftAction& action = TimeFlowTable::select_action(*entry, hash);
  if (action.hops.size() > 1) {
    // Source-routing action: write the remaining hops into the packet.
    p.source_route.assign(action.hops.begin() + 1, action.hops.end());
    p.route_idx = 0;
  }
  apply_action(std::move(p), action.hops.front(), arr);
}

void TorSwitch::apply_action(Packet&& p, const net::SourceHop& hop,
                             SliceId arr) {
  if (hop.egress == kElectricalEgress) {
    auto* el = net_.electrical();
    assert(el != nullptr && "route uses electrical fabric but none exists");
    el->transmit(id_, std::move(p));
    return;
  }
  // Quarantine safe mode: while this node (or the packet's final ToR) is
  // fenced off the optical fabric, divert to the electrical fabric instead
  // of parking bytes behind a gated transmitter. Only possible on hybrid
  // architectures; without an electrical fabric the watchdog never
  // escalates past guard widening.
  if (auto* el = net_.electrical();
      el != nullptr && (net_.node_quarantined(id_) ||
                        (p.dst_node != kInvalidNode &&
                         net_.node_quarantined(p.dst_node)))) {
    p.intended_slice = kAnySlice;
    p.intended_port = kInvalidPort;
    p.source_route.clear();
    p.route_idx = 0;
    el->transmit(id_, std::move(p));
    return;
  }
  enqueue_optical(std::move(p), hop.egress, hop.dep_slice, arr);
}

std::int64_t TorSwitch::admissible_bytes(PortId port, int rank) const {
  // An optical circuit carries a fixed number of bytes per slice; a queue is
  // full once it holds more than the remaining slice time can transmit
  // (§5.2). Future slices admit a full window.
  const auto& cfg = net_.config();
  if (!cfg.calendar_mode) return INT64_MAX;
  (void)port;
  const SimTime full = window_end() - window_start();
  SimTime usable = full;
  if (rank == 0) {
    const SimTime now = net_.sim().now();
    usable = window_end() - std::max(now, window_start());
    if (usable < SimTime::zero()) usable = SimTime::zero();
  }
  return bytes_in_ns(usable.ns(), cfg.optical_bw);
}

void TorSwitch::enqueue_optical(Packet&& p, PortId port, SliceId dep,
                                SliceId arr) {
  assert(port >= 0 && port < static_cast<int>(uplinks_.size()));
  auto& u = uplinks_[static_cast<std::size_t>(port)];
  const auto& cfg = net_.config();

  if (!cfg.calendar_mode || dep == kAnySlice) {
    // Classical flow-table path: wildcard departure, FIFO egress (§3 (c)).
    const PacketId pid = p.id;
    const std::int64_t pbytes = p.size_bytes;
    if (!u.fifo.enqueue(std::move(p))) {
      drops_congestion_->inc();
      if (auto* tr = net_.sim().recorder()) {
        tr->drop(net_.sim().now(), telemetry::DropReason::Congestion, id_,
                 port, pid, pbytes);
      }
      return;
    }
    if (auto* tr = net_.sim().recorder()) {
      tr->packet_enqueue(net_.sim().now(), id_, port, pid, pbytes);
    }
    peak_buffer_ = std::max(peak_buffer_, buffer_bytes());
    try_send(port);
    return;
  }

  const SliceId period = net_.schedule().period();
  const int rank = (dep - arr + period) % period;
  const int k = u.cal->num_queues();
  if (rank >= k) {
    if (cfg.offload) {
      p.intended_slice = dep;
      p.intended_port = port;
      offload_to_host(std::move(p), current_abs_slice() + rank);
      return;
    }
    on_congested(std::move(p), port, dep, arr);
    return;
  }

  // Trimmed headers bypass congestion detection (they ride the priority
  // headroom Opera reserves for control); they still face byte capacity.
  if (cfg.congestion_detection && u.eqo && !p.trimmed) {
    const SimTime now = net_.sim().now();
    u.eqo->drain_window(u.cal->active_index(), u.last_eqo_drain, now);
    u.last_eqo_drain = now;
    const int qidx = (u.cal->active_index() + rank) % k;
    // "A calendar queue is full if its occupancy exceeds the admissible
    // data amount for the elapsed time of the time slice" (§5.2): the
    // check is on accumulated occupancy, so a packet landing near the
    // slice tail merely waits for the next occurrence instead of being
    // treated as congestion.
    if (u.eqo->estimate(qidx) > admissible_bytes(port, rank)) {
      on_congested(std::move(p), port, dep, arr);
      return;
    }
  }

  p.intended_slice = dep;
  p.intended_port = port;
  const PacketId pid = p.id;
  const std::int64_t bytes = p.size_bytes;
  const auto verdict = u.cal->try_enqueue(std::move(p), rank);
  if (verdict != EnqueueVerdict::Ok) {
    // Byte-capacity reject. The packet was consumed by try_enqueue only on
    // Ok, but our FifoQueue moves only on success, so this path means drop.
    drops_congestion_->inc();
    if (auto* tr = net_.sim().recorder()) {
      tr->drop(net_.sim().now(), telemetry::DropReason::Congestion, id_, port,
               pid, bytes);
    }
    return;
  }
  if (auto* tr = net_.sim().recorder()) {
    tr->packet_enqueue(net_.sim().now(), id_, port, pid, bytes);
  }
  if (u.eqo) u.eqo->on_enqueue((u.cal->active_index() + rank) % k, bytes);
  peak_buffer_ = std::max(peak_buffer_, buffer_bytes());
  if (rank == 0) try_send(port);
}

bool TorSwitch::force_enqueue(Packet&& p, PortId port, SliceId dep,
                              SliceId arr) {
  // Accept the slice miss: park the packet in its intended queue without
  // the admission test; only byte capacity can still reject it.
  auto& u = uplinks_[static_cast<std::size_t>(port)];
  if (!u.cal) return false;
  const SliceId period = net_.schedule().period();
  const int rank = (dep - arr + period) % period;
  const int k = u.cal->num_queues();
  if (rank >= k) return false;
  p.intended_slice = dep;
  p.intended_port = port;
  const int qidx = (u.cal->active_index() + rank) % k;
  const PacketId pid = p.id;
  const std::int64_t bytes = p.size_bytes;
  if (u.cal->try_enqueue(std::move(p), rank) != EnqueueVerdict::Ok) {
    return false;
  }
  if (auto* tr = net_.sim().recorder()) {
    tr->packet_enqueue(net_.sim().now(), id_, port, pid, bytes);
  }
  if (u.eqo) u.eqo->on_enqueue(qidx, bytes);
  peak_buffer_ = std::max(peak_buffer_, buffer_bytes());
  if (rank == 0) try_send(port);
  return true;
}

void TorSwitch::on_congested(Packet&& p, PortId port, SliceId dep,
                             SliceId arr) {
  const auto& cfg = net_.config();
  // The intended calendar queue is full: push-back (if enabled) throttles
  // the senders regardless of how this packet itself is handled (§5.2 —
  // slice-miss handling covers in-flight traffic, push-back future traffic).
  if (cfg.pushback) send_pushback(p, dep);
  switch (cfg.congestion_response) {
    case CongestionResponse::Defer:
      if (try_defer(p, arr)) {
        ++deferrals_;
        return;
      }
      // No later slice admits it: accept the miss in the intended queue
      // (losses then only come from exhausted byte capacity).
      if (force_enqueue(std::move(p), port, dep, arr)) return;
      break;
    case CongestionResponse::Trim:
      if (!p.trimmed && p.size_bytes > 64) {
        // Opera-style trimming: drop the payload, keep a 64 B header that
        // still reaches the receiver to trigger retransmission.
        ++trims_;
        p.size_bytes = 64;
        p.trimmed = true;
        enqueue_optical(std::move(p), port, dep, arr);
        return;
      }
      break;
    case CongestionResponse::Drop:
      break;
  }
  drops_congestion_->inc();
  if (auto* tr = net_.sim().recorder()) {
    tr->drop(net_.sim().now(), telemetry::DropReason::Congestion, id_, port,
             p.id, p.size_bytes);
  }
}

bool TorSwitch::try_defer(Packet& p, SliceId arr) {
  // HOHO/UCMP response: re-route as if the packet arrived in a later slice,
  // taking the first alternative whose queue admits it (§5.2, Appx. B).
  if (uplinks_.empty() || !uplinks_[0].cal) return false;
  const auto& sched = net_.schedule();
  const SliceId period = sched.period();
  const int k = uplinks_[0].cal->num_queues();
  for (int d = 1; d < k; ++d) {
    const SliceId s = sched.slice_of(arr + d);
    const TftEntry* entry = tft_.lookup(s, p.src_node, p.dst_node);
    if (entry == nullptr) continue;
    const TftAction& action = TimeFlowTable::select_action(
        *entry, hash_mix(static_cast<std::uint64_t>(p.id) + d));
    const net::SourceHop& hop = action.hops.front();
    // Source-routed schemes (UCMP) defer by replacing the packet's route
    // with the alternative computed for the later arrival slice.
    if (hop.egress == kElectricalEgress || hop.dep_slice == kAnySlice)
      continue;
    const int rank = d + ((hop.dep_slice - s + period) % period);
    if (rank >= k) continue;
    auto& u = uplinks_[static_cast<std::size_t>(hop.egress)];
    const int qidx = (u.cal->active_index() + rank) % k;
    if (u.eqo &&
        u.eqo->estimate(qidx) + p.size_bytes >
            admissible_bytes(hop.egress, rank)) {
      continue;
    }
    p.intended_slice = hop.dep_slice;
    p.intended_port = hop.egress;
    if (action.hops.size() > 1) {
      p.source_route.assign(action.hops.begin() + 1, action.hops.end());
      p.route_idx = 0;
    }
    const PacketId pid = p.id;
    const std::int64_t bytes = p.size_bytes;
    if (u.cal->try_enqueue(std::move(p), rank) == EnqueueVerdict::Ok) {
      if (auto* tr = net_.sim().recorder()) {
        tr->packet_enqueue(net_.sim().now(), id_, hop.egress, pid, bytes);
      }
      if (u.eqo) u.eqo->on_enqueue(qidx, bytes);
      peak_buffer_ = std::max(peak_buffer_, buffer_bytes());
      if (rank == 0) try_send(hop.egress);
      return true;
    }
    return false;  // packet was moved-from only on Ok; Ok is the only move
  }
  return false;
}

void TorSwitch::send_pushback(const Packet& p, SliceId dep) {
  ++pushbacks_sent_;
  const SliceId period = net_.schedule().period();
  const std::int64_t abs_dep =
      current_abs_slice() + ((dep - current_slice() + period) % period);
  const NodeId congested_dst = p.dst_node;
  const NodeId src_tor = p.src_node;
  // Control-plane broadcast to every host under the sender ToR (§5.2).
  // The hosts live on src_tor's lane; kPushbackDelay participates in the
  // engine's sync-window minimum, so the hop never needs clamping.
  net_.sim().schedule_at_lane(
      src_tor, net_.sim().now() + kPushbackDelay,
      [this, congested_dst, src_tor, abs_dep]() {
        for (int i = 0; i < net_.config().hosts_per_tor; ++i) {
          Packet msg;
          msg.type = PacketType::Pushback;
          msg.src_node = congested_dst;
          msg.offload_abs_slice = abs_dep;
          net_.host(net_.host_id(src_tor, i)).deliver(std::move(msg));
        }
      },
      "pushback");
}

void TorSwitch::offload_to_host(Packet&& p, std::int64_t target_abs) {
  ++offloads_;
  p.offloaded = true;
  p.offload_abs_slice = target_abs;
  // Random host balances load; the host does the bookkeeping and initiates
  // the return (§5.2).
  const int h = static_cast<int>(
      rng_.uniform(static_cast<std::uint32_t>(downlinks_.size())));
  downlinks_[static_cast<std::size_t>(h)]->transmit(std::move(p));
}

void TorSwitch::handle_offload_return(Packet&& p) {
  const std::int64_t rank64 = p.offload_abs_slice - current_abs_slice();
  p.offloaded = false;
  const auto& sched = net_.schedule();
  if (rank64 < 0 ||
      (!uplinks_.empty() && uplinks_[0].cal &&
       rank64 >= uplinks_[0].cal->num_queues())) {
    // Late or still out of horizon: re-route from scratch.
    p.intended_slice = kAnySlice;
    p.intended_port = kInvalidPort;
    p.offload_abs_slice = -1;
    route(std::move(p));
    return;
  }
  const int rank = static_cast<int>(rank64);
  const PortId port = p.intended_port;
  assert(port >= 0 && port < static_cast<int>(uplinks_.size()));
  auto& u = uplinks_[static_cast<std::size_t>(port)];
  const int k = u.cal->num_queues();
  const int qidx = (u.cal->active_index() + rank) % k;
  p.intended_slice = sched.slice_of(p.offload_abs_slice);
  const PacketId pid = p.id;
  const std::int64_t bytes = p.size_bytes;
  if (u.cal->enqueue_unchecked(std::move(p), rank) == EnqueueVerdict::Ok) {
    if (auto* tr = net_.sim().recorder()) {
      tr->packet_enqueue(net_.sim().now(), id_, port, pid, bytes);
    }
    if (u.eqo) u.eqo->on_enqueue(qidx, bytes);
    if (rank == 0) try_send(port);
  } else {
    drops_congestion_->inc();
    if (auto* tr = net_.sim().recorder()) {
      tr->drop(net_.sim().now(), telemetry::DropReason::Congestion, id_, port,
               pid, bytes);
    }
  }
}

void TorSwitch::schedule_drain(PortId port, SimTime at) {
  auto& u = uplinks_[static_cast<std::size_t>(port)];
  if (u.drain_scheduled) return;
  u.drain_scheduled = true;
  net_.sim().schedule_at(
      at,
      [this, port]() {
        uplinks_[static_cast<std::size_t>(port)].drain_scheduled = false;
        try_send(port);
      },
      "tor.drain");
}

void TorSwitch::try_send(PortId port) {
  // Quarantined: the optical transmitter is administratively dark. Traffic
  // was (and keeps being) diverted electrically; anything still parked here
  // is evacuated by flush_and_reroute().
  if (net_.node_quarantined(id_)) return;
  auto& u = uplinks_[static_cast<std::size_t>(port)];
  const auto& cfg = net_.config();
  const SimTime now = net_.sim().now();

  if (u.busy_until > now) {
    schedule_drain(port, u.busy_until);
    return;
  }

  if (!cfg.calendar_mode) {
    // TA/static: continuous circuits, drain whenever the transmitter idles.
    auto p = u.fifo.dequeue();
    if (!p) return;
    const SimTime ser =
        SimTime::nanos(serialization_ns(p->size_bytes, cfg.optical_bw));
    const SimTime tx_end = now + ser;
    u.busy_until = tx_end;
    u.tx_bytes += p->size_bytes;
    if (auto* tr = net_.sim().recorder()) {
      tr->packet_dequeue(now, id_, port, p->id, p->size_bytes);
    }
    net_.optical().transmit(id_, port, std::move(*p), now, tx_end);
    schedule_drain(port, tx_end);
    return;
  }

  const SimTime ws = window_start();
  const SimTime we = window_end();
  if (now < ws) {
    schedule_drain(port, ws);
    return;
  }
  if (now >= we) return;  // next rotation re-kicks the drain

  auto& q = u.cal->active_queue();
  while (const Packet* head = q.peek()) {
    if (u.busy_until > now) {
      schedule_drain(port, u.busy_until);
      return;
    }
    if (head->intended_slice != current_slice() ||
        head->intended_port != port) {
      // The packet missed its slice (congestion) and wrapped with the
      // calendar; the circuit configuration has moved on — re-route it.
      // Rerouting is deferred one event to avoid re-entering this drain.
      slice_misses_->inc();
      auto missed = q.dequeue();
      if (auto* tr = net_.sim().recorder()) {
        tr->slice_miss(now, id_, port, missed->id);
      }
      missed->intended_slice = kAnySlice;
      missed->intended_port = kInvalidPort;
      missed->source_route.clear();
      missed->route_idx = 0;
      net_.sim().schedule_at(
          now,
          [this, pkt = std::move(*missed)]() mutable {
            route(std::move(pkt));
          },
          "tor.reroute");
      continue;
    }
    const SimTime ser =
        SimTime::nanos(serialization_ns(head->size_bytes, cfg.optical_bw));
    if (now + ser > we) return;  // does not fit: wait for the slice to recur
    auto p = q.dequeue();
    const SimTime tx_end = now + ser;
    u.busy_until = tx_end;
    u.tx_bytes += p->size_bytes;
    if (auto* tr = net_.sim().recorder()) {
      tr->packet_dequeue(now, id_, port, p->id, p->size_bytes);
    }
    net_.optical().transmit(id_, port, std::move(*p), now, tx_end);
    schedule_drain(port, tx_end);
    return;
  }

  // Scheduled traffic drained; serve wildcard (flow-table) packets
  // best-effort on whatever circuit the current slice carries — the §3
  // backward-compatibility path on a calendar-mode switch.
  if (const Packet* head = u.fifo.peek()) {
    const SimTime ser =
        SimTime::nanos(serialization_ns(head->size_bytes, cfg.optical_bw));
    if (now + ser > we) return;
    auto p = u.fifo.dequeue();
    const SimTime tx_end = now + ser;
    u.busy_until = tx_end;
    u.tx_bytes += p->size_bytes;
    if (auto* tr = net_.sim().recorder()) {
      tr->packet_dequeue(now, id_, port, p->id, p->size_bytes);
    }
    net_.optical().transmit(id_, port, std::move(*p), now, tx_end);
    schedule_drain(port, tx_end);
  }
}

void TorSwitch::on_rotation(std::int64_t abs_slice) {
  const SimTime now = net_.sim().now();
  if (auto* tr = net_.sim().recorder()) {
    tr->slice_rotation(now, id_, abs_slice);
    // The guard window is a fixed offset from the rotation, so its close is
    // recorded directly with a future timestamp rather than via a scheduled
    // event — tracing must not perturb event sequencing.
    tr->guard_open(now, id_, abs_slice, net_.head_guard_.ns());
    tr->guard_close(now + net_.head_guard_, id_, abs_slice);
  }
  for (std::size_t i = 0; i < uplinks_.size(); ++i) {
    auto& u = uplinks_[i];
    if (!u.cal) continue;
    if (u.eqo) {
      // Close out the draining window of the queue that was active.
      u.eqo->drain_window(u.cal->active_index(), u.last_eqo_drain, now);
      u.last_eqo_drain = now;
    }
    u.cal->rotate();
  }
  local_abs_slice_ = abs_slice;
  local_slice_start_ = now;
  for (std::size_t i = 0; i < uplinks_.size(); ++i) {
    try_send(static_cast<PortId>(i));
  }
}

void TorSwitch::flush_and_reroute() {
  std::vector<Packet> evacuated;
  for (auto& u : uplinks_) {
    if (u.cal) {
      for (auto& p : u.cal->drain_all()) evacuated.push_back(std::move(p));
    }
    const bool was_paused = u.fifo.paused();
    u.fifo.resume();
    while (auto p = u.fifo.dequeue()) evacuated.push_back(std::move(*p));
    if (was_paused) u.fifo.pause();
  }
  for (auto& p : evacuated) {
    p.intended_slice = kAnySlice;
    p.intended_port = kInvalidPort;
    p.source_route.clear();
    p.route_idx = 0;
    route(std::move(p));
  }
}

std::int64_t TorSwitch::buffer_bytes() const {
  std::int64_t b = 0;
  for (const auto& u : uplinks_) {
    b += u.fifo.bytes();
    if (u.cal) b += u.cal->total_bytes();
  }
  return b;
}

std::int64_t TorSwitch::queued_packets() const {
  std::int64_t n = 0;
  for (const auto& u : uplinks_) {
    n += static_cast<std::int64_t>(u.fifo.size());
    if (u.cal) n += u.cal->total_packets();
  }
  return n;
}

std::int64_t TorSwitch::port_buffer_bytes(PortId port) const {
  const auto& u = uplinks_[static_cast<std::size_t>(port)];
  std::int64_t b = u.fifo.bytes();
  if (u.cal) b += u.cal->total_bytes();
  return b;
}

// ---------------------------------------------------------------------------
// Network

Network::Network(NetworkConfig cfg, optics::Schedule schedule,
                 optics::OcsProfile profile)
    : cfg_(cfg), schedule_(std::move(schedule)), master_rng_(cfg.seed) {
  assert(schedule_.num_nodes() == cfg_.num_tors);
  sync_ = std::make_unique<SyncModel>(cfg_.num_tors, cfg_.sync_error,
                                      master_rng_.fork());
  // Usable slice window: the configured guardband (which the operator must
  // size to cover OCS retargeting — §7) plus worst-case clock error; the
  // tail margin keeps the last bit inside the global slice despite clock
  // error. An under-sized guardband loses packets into the retargeting
  // window, exactly as on real hardware.
  head_guard_ = cfg_.guardband + cfg_.sync_error;
  tail_margin_ = cfg_.sync_error;
  guard_extra_.assign(static_cast<std::size_t>(cfg_.num_tors),
                      SimTime::zero());
  quarantine_holds_.assign(static_cast<std::size_t>(cfg_.num_tors), 0);
  beacons_ok_ = &sim_.metrics().counter("sync.beacons", {{"result", "ok"}});
  beacons_lost_ =
      &sim_.metrics().counter("sync.beacons", {{"result", "lost"}});
  node_epoch_.assign(static_cast<std::size_t>(cfg_.num_tors), 0);
  node_abs_.assign(static_cast<std::size_t>(cfg_.num_tors), 0);
  mixed_epoch_slices_ = &sim_.metrics().counter("net.mixed_epoch_slices");

  optical_ = std::make_unique<optics::OpticalFabric>(
      sim_, schedule_, profile, master_rng_.fork());
  if (cfg_.electrical_bw > 0) {
    electrical_ = std::make_unique<net::ElectricalFabric>(
        sim_, cfg_.num_tors, cfg_.electrical_bw, kElectricalTransit,
        kElectricalBacklog);
  }

  tors_.reserve(static_cast<std::size_t>(cfg_.num_tors));
  for (NodeId n = 0; n < cfg_.num_tors; ++n) {
    tors_.push_back(std::make_unique<TorSwitch>(*this, n));
    auto* tor = tors_.back().get();
    tor->local_slice_start_ = sync_->offset(n);
    optical_->attach(n, [tor](Packet&& p, PortId in_port) {
      tor->from_optical(std::move(p), in_port);
    });
    if (electrical_) {
      electrical_->attach(
          n, [tor](Packet&& p) { tor->from_electrical(std::move(p)); });
    }
  }

  hosts_.reserve(static_cast<std::size_t>(num_hosts()));
  for (NodeId n = 0; n < cfg_.num_tors; ++n) {
    auto* tor = tors_[static_cast<std::size_t>(n)].get();
    for (int i = 0; i < cfg_.hosts_per_tor; ++i) {
      const HostId h = host_id(n, i);
      hosts_.push_back(std::make_unique<Host>(*this, h, n));
      auto* host = hosts_.back().get();
      host->up_link_ = std::make_unique<net::Link>(
          sim_, cfg_.host_bw, kHostLinkDelay,
          [tor](Packet&& p) { tor->from_host(std::move(p)); });
      tor->downlinks_.push_back(std::make_unique<net::Link>(
          sim_, cfg_.host_bw, kHostLinkDelay,
          [host](Packet&& p) { host->deliver(std::move(p)); }));
    }
  }

  if (cfg_.shards > 0) enable_sharding(cfg_.shards);
}

Network::~Network() = default;

void Network::enable_sharding(int workers) {
  if (workers <= 0 || sim_.sharded()) return;
  assert(!started_ && "enable_sharding must precede start()");
  // Sync window: the smallest latency on any cross-ToR interaction. Every
  // event one lane schedules onto another lies at least this far in the
  // future, so lanes executing a window [T, T+W) in parallel can never
  // affect each other inside it — the conservative-sync lookahead.
  SimTime window = optical_->profile().latency_min;
  if (cfg_.electrical_bw > 0) {
    window = std::min(window, kElectricalTransit);
  }
  if (cfg_.pushback) window = std::min(window, kPushbackDelay);
  assert(window > SimTime::zero() && "zero-lookahead topology can't shard");
  sim_.configure_lanes(cfg_.num_tors);
  lane_packet_seq_.assign(static_cast<std::size_t>(cfg_.num_tors) + 1, 0);
  lane_flow_seq_.assign(static_cast<std::size_t>(cfg_.num_tors) + 1, 0);
  optical_->enable_sharding();
  if (electrical_) electrical_->set_sharded(true);
  engine_ = std::make_unique<parallel::ShardedEngine>(sim_, cfg_.num_tors,
                                                      workers, window);
  sim_.set_parallel_runner(engine_.get());
}

void Network::notify_wrong_slice(NodeId n, SimTime at) {
  if (!arrival_hook_) return;
  // The hook holds control-plane state (the sync watchdog); a worker-lane
  // symptom crosses to the control queue through the barrier.
  sim_.run_on(
      sim::Simulator::kControlLane,
      [this, n, at]() {
        if (arrival_hook_) arrival_hook_(n, at);
      },
      "net.wrong_slice");
}

void Network::start() {
  if (started_) return;
  started_ = true;
  if (!cfg_.calendar_mode || schedule_.period() <= 1) return;
  for (NodeId n = 0; n < cfg_.num_tors; ++n) arm_rotation(n, 1);
  if (cfg_.resync_interval > SimTime::zero()) {
    sim_.schedule_every(
        cfg_.resync_interval, cfg_.resync_interval,
        [this]() { beacon_round(); }, "sync.beacon");
  }
}

void Network::arm_rotation(NodeId n, std::int64_t k) {
  // Rotation k of node n fires at the node's local view of the global
  // boundary k*dur: with a static clock this is exactly the historical
  // `boundary + offset` chain; with drift the firing instants stretch or
  // compress, physically skewing the node's slice windows off the fabric's.
  const SimTime target = schedule_.slice_duration() * k;
  SimTime when = sync_->rotation_time(n, target, target);
  // A pathological offset (or a backwards clock step mid-run) must never
  // schedule into the past; clamping keeps per-node rotations ordered.
  if (when < sim_.now()) when = sim_.now();
  auto* tor = tors_[static_cast<std::size_t>(n)].get();
  if (sim_.sharded()) {
    // Two same-instant events: the rotation's queue work runs on the ToR's
    // own lane (so the egress drain chains it kicks off inherit that lane),
    // while the controller hook, epoch bookkeeping, and the re-arm stay on
    // the control queue. The control phase runs first within each window,
    // so a committed transaction's staged state still activates before the
    // node processes the slice — the same ordering the serial closure had.
    sim_.schedule_at_lane(
        n, when, [tor, k]() { tor->on_rotation(k); }, "rotation");
    sim_.schedule_at(
        when,
        [this, n, k]() {
          if (rotation_hook_) rotation_hook_(n, k);
          note_rotation_epoch(n, k);
          arm_rotation(n, k + 1);
        },
        "rotation.ctl");
    return;
  }
  sim_.schedule_at(
      when,
      [this, tor, n, k]() {
        // The controller's boundary hook first, so a committed transaction's
        // staged state activates before this slice is processed; then the
        // mixed-epoch bookkeeping sees the post-activation epoch.
        if (rotation_hook_) rotation_hook_(n, k);
        tor->on_rotation(k);
        note_rotation_epoch(n, k);
        arm_rotation(n, k + 1);
      },
      "rotation");
}

void Network::refresh_epoch_mixed() {
  const std::uint64_t first = node_epoch_.empty() ? 0 : node_epoch_[0];
  epoch_mixed_ = false;
  for (const std::uint64_t e : node_epoch_) {
    if (e != first) {
      epoch_mixed_ = true;
      return;
    }
  }
}

void Network::note_node_epoch(NodeId n, std::uint64_t e) {
  const bool was_mixed = epoch_mixed_;
  node_epoch_[static_cast<std::size_t>(n)] = e;
  refresh_epoch_mixed();
  // Without rotations there is no per-slice sampling point, so each
  // transition into a mixed state counts as one exposure window instead.
  if (epoch_mixed_ && !was_mixed &&
      (!cfg_.calendar_mode || schedule_.period() <= 1)) {
    mixed_epoch_slices_->inc();
  }
}

void Network::note_rotation_epoch(NodeId n, std::int64_t abs_slice) {
  node_abs_[static_cast<std::size_t>(n)] = abs_slice;
  // Charge slice `abs_slice` once the *last* node rotates into it: a clean
  // boundary-synchronized swap (every node activates at its own rotation
  // into the same slice) is uniform again by then and charges nothing,
  // while a node left behind by a lost commit keeps the fabric mixed when
  // the slice completes its entry.
  std::int64_t min_abs = node_abs_[0];
  for (const std::int64_t a : node_abs_) min_abs = std::min(min_abs, a);
  if (min_abs == abs_slice && abs_slice > last_counted_abs_) {
    last_counted_abs_ = abs_slice;
    if (epoch_mixed_) mixed_epoch_slices_->inc();
  }
}

std::int64_t Network::mixed_epoch_slices() const {
  return mixed_epoch_slices_->value();
}

void Network::beacon_round() {
  for (NodeId n = 0; n < cfg_.num_tors; ++n) beacon_exchange(n, false);
}

bool Network::beacon_exchange(NodeId n, bool probe) {
  const SimTime now = sim_.now();
  if (sync_->beacons_blocked(n, now)) {
    beacons_lost_->inc();
    if (auto* tr = sim_.recorder()) tr->beacon_lost(now, n, probe);
    return false;
  }
  sync_->resync(n, now);
  beacons_ok_->inc();
  return true;
}

bool Network::probe_beacon(NodeId n) { return beacon_exchange(n, true); }

void Network::set_node_guard_extra(NodeId n, SimTime extra) {
  if (extra < SimTime::zero()) extra = SimTime::zero();
  // Keep at least a quarter of the nominal drain window usable: a widened
  // node ships less per slice but still makes forward progress.
  const SimTime nominal =
      schedule_.slice_duration() - head_guard_ - tail_margin_;
  const SimTime cap = SimTime::nanos(nominal.ns() * 3 / 8);
  if (extra > cap) extra = cap;
  guard_extra_[static_cast<std::size_t>(n)] = extra;
}

void Network::set_node_quarantined(NodeId n, bool q) {
  int& holds = quarantine_holds_[static_cast<std::size_t>(n)];
  if (!q) {
    if (holds > 0) --holds;
    return;
  }
  if (++holds > 1) return;
  // Deferred one event: quarantine is decided inside watchdog/fabric
  // callbacks that may sit under a drain loop of the very queues the flush
  // walks.
  auto* tor = tors_[static_cast<std::size_t>(n)].get();
  sim_.schedule_at(
      sim_.now(), [tor]() { tor->flush_and_reroute(); },
      "tor.quarantine_flush");
}

void Network::reconfigure(optics::Schedule next, SimTime delay) {
  assert(next.period() == schedule_.period() &&
         next.slice_duration() == schedule_.slice_duration() &&
         "reconfigure preserves slice timing; rebuild for new timing");
  optical_->reconfigure(next, delay);
  sim_.schedule_in(
      delay,
      [this, next = std::move(next)]() mutable {
        schedule_ = std::move(next);
      },
      "fabric.reconfig");
}

Network::Totals Network::totals() const {
  Totals t;
  t.fabric_drops = optical_->total_drops();
  if (electrical_) t.electrical_drops = electrical_->drops();
  for (const auto& tor : tors_) {
    t.delivered += tor->delivered_local();
    t.congestion_drops += tor->drops_congestion();
    t.no_route_drops += tor->drops_no_route();
  }
  return t;
}

std::int64_t Network::queued_packets() const {
  std::int64_t n = 0;
  for (const auto& tor : tors_) n += tor->queued_packets();
  for (const auto& host : hosts_) n += host->offload_stored_packets();
  return n;
}

std::vector<std::vector<std::int64_t>> Network::collect_tm() {
  std::vector<std::vector<std::int64_t>> tm(
      static_cast<std::size_t>(cfg_.num_tors),
      std::vector<std::int64_t>(static_cast<std::size_t>(cfg_.num_tors), 0));
  for (auto& host : hosts_) {
    const auto counters = host->take_traffic_counters();
    const auto src = static_cast<std::size_t>(host->tor());
    for (std::size_t d = 0; d < counters.size(); ++d) {
      tm[src][d] += counters[d];
    }
  }
  return tm;
}

}  // namespace oo::core
