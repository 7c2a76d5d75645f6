// The OpenOptics backend system (§5): ToR switches with time-flow tables and
// calendar-queue management, hosts with a libvma-style userspace stack
// (flow pausing, segment queues, offload storage), the optical fabric, an
// optional parallel electrical fabric, and the infrastructure services —
// congestion detection, traffic push-back, flow pausing, traffic collection,
// and buffer offloading (§5.2) — wired together under one event simulator.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/slab.h"
#include "common/time.h"
#include "core/calendar_queue.h"
#include "core/eqo.h"
#include "core/flow_table.h"
#include "core/path.h"
#include "core/sync.h"
#include "core/time_flow_table.h"
#include "eventsim/simulator.h"
#include "net/electrical_fabric.h"
#include "net/fifo_queue.h"
#include "net/link.h"
#include "net/packet.h"
#include "optics/fabric.h"
#include "optics/schedule.h"
#include "parallel/sharded.h"

namespace oo::core {

using net::Packet;
using net::PacketType;

// What a switch does when congestion detection flags a packet whose
// calendar queue cannot take it (§5.2): the framework detects, the
// architecture chooses the response.
enum class CongestionResponse {
  Drop,   // RotorNet-style tail drop
  Trim,   // Opera-style payload trimming (header survives, marked)
  Defer,  // HOHO/UCMP-style deferral to a later feasible slice
};

// Host network stack model for delay/variance purposes (Fig. 14): the
// userspace libvma path vs. the kernel path.
enum class HostStack { Libvma, Kernel };

// Propagation delay of each host <-> ToR link.
inline constexpr SimTime kHostLinkDelay = SimTime::nanos(600);
// Classical-FIFO capacity per uplink for TA/static (wildcard) operation.
inline constexpr std::int64_t kFifoCapacity = 8 << 20;

struct NetworkConfig {
  int num_tors = 8;
  int hosts_per_tor = 1;
  BitsPerSec optical_bw = 100e9;
  BitsPerSec host_bw = 100e9;

  // Parallel electrical fabric; 0 bandwidth = absent.
  BitsPerSec electrical_bw = 0;

  // Calendar queues: count per uplink port (the offload horizon N of §5.2
  // when smaller than the schedule period) and per-queue byte capacity.
  int calendar_queues = 0;  // 0 = match the schedule period (capped at 128)
  std::int64_t queue_capacity = 2 << 20;

  // TO mode runs slice rotation + calendar queues; TA/static mode drains
  // FIFOs continuously. Set by the architecture preset.
  bool calendar_mode = true;

  // Guardband at the head of each slice before the first launch (covers
  // OCS reconfiguration + rotation variance + sync + EQO windows, §7).
  SimTime guardband = SimTime::nanos(200);

  SimTime sync_error = SimTime::nanos(28);

  // OpSync resync beacon period (TO mode): every interval the controller
  // re-disciplines each ToR clock back to within sync_error — unless the
  // beacon is suppressed by a SyncBeaconLoss/SyncOutage fault. Zero disables
  // the protocol (clocks then hold their construction offsets, or drift
  // forever once a drift fault is injected).
  SimTime resync_interval = SimTime::micros(100);

  // Congestion detection (EQO-based) and response.
  bool congestion_detection = true;
  CongestionResponse congestion_response = CongestionResponse::Drop;

  // Traffic push-back (§5.2): last-resort sender throttling.
  bool pushback = false;

  // Buffer offloading (§5.2): rank-overflow packets parked on hosts.
  bool offload = false;

  HostStack host_stack = HostStack::Libvma;
  // Per-destination segment queue capacity in the host stack (libvma
  // segment queue; applications block when it fills).
  std::int64_t host_segment_queue = 8 << 20;

  // Sharded parallel engine (src/parallel/): number of worker shards the
  // per-ToR event lanes are spread across. 0 = the legacy single-queue
  // engine, bit-for-bit unchanged. Any value >= 1 runs the windowed lane
  // engine; results are byte-identical for every shard count (shards=1 is
  // the zero-thread baseline the tests pin against).
  int shards = 0;

  std::uint64_t seed = 42;
};

class Network;

// ---------------------------------------------------------------------------
// Host: endpoint with a userspace-stack model. Transports bind flow sinks;
// the infra services hook flow pausing, push-back windows, and offload
// storage here.
class Host {
 public:
  using ReceiveFn = std::function<void(Packet&&)>;

  Host(Network& net, HostId id, NodeId tor);

  HostId id() const { return id_; }
  NodeId tor() const { return tor_; }

  // Transport attach points. bind_flow returns true when the bind was
  // posted to this host's lane and lands later (a sharded bind from
  // another lane). Pass that to unbind_flow: an unbind that runs before
  // such a bind lands leaves it nothing to install, so a flow that dies
  // with its bind in flight is never bound.
  bool bind_flow(FlowId flow, ReceiveFn sink);
  void unbind_flow(FlowId flow, bool bind_posted = false);
  std::size_t bound_flows() const { return flows_.size(); }
  // Catch-all sink for packets with no bound flow.
  void bind_default(ReceiveFn sink) { default_sink_ = std::move(sink); }
  // Invoked on every outgoing packet before pausing/queueing decisions —
  // the hook services like hybrid elephant steering use to rewrite packets
  // (§5.2); the userspace-stack interposition point.
  void set_send_hook(std::function<void(Packet&)> hook) {
    send_hook_ = std::move(hook);
  }

  // Sends through the stack: pausing/push-back may park the packet in the
  // per-destination segment queue. Returns false if the segment queue is
  // full: the packet is dropped and the application must send it again.
  // Nothing wakes a writer when the queue drains.
  bool send(Packet&& p);
  // True if a send to dst would be parked or rejected right now.
  bool would_block(NodeId dst) const;

  // Socket-style admission: true if the stack can absorb `bytes` toward
  // dst right now (either the fast path is open or the segment queue has
  // room). TcpLite and TdtcpLite check this before each new segment and,
  // when it fails, write nothing until their next ack or RTO.
  bool can_buffer(NodeId dst, std::int64_t bytes) const;

  // Flow pausing service (§5.2).
  void pause_dst(NodeId dst);
  void resume_dst(NodeId dst);
  bool paused(NodeId dst) const;

  // Push-back: block sends to `dst` until global time `until`.
  void pushback_dst(NodeId dst, SimTime until);

  std::int64_t segment_bytes(NodeId dst) const;
  std::int64_t sent_bytes_to(NodeId dst) const;
  // Drains and returns the per-destination byte counters (traffic
  // collection, §5.2).
  std::vector<std::int64_t> take_traffic_counters();

  // Fabric-side delivery (from the ToR downlink).
  void deliver(Packet&& p);

  // Packets currently parked in offload storage awaiting their return slice
  // (census side of the packet-conservation invariant).
  std::int64_t offload_stored_packets() const {
    return offload_stored_packets_;
  }

 private:
  friend class Network;
  struct DstState {
    net::FifoQueue segq;
    bool paused = false;
    SimTime pushback_until = SimTime::zero();
    std::int64_t sent_bytes = 0;
    explicit DstState(std::int64_t cap) : segq(cap) {}
  };

  void stack_delay_send(Packet&& p);
  void pump();  // paced drain of parked segment queues (one per host)
  void start_pump();
  DstState& dst_state(NodeId dst);
  SimTime stack_delay();  // host-stack processing delay model

  Network& net_;
  HostId id_;
  NodeId tor_;
  std::unique_ptr<net::Link> up_link_;  // host -> ToR, wired by Network
  std::vector<DstState> dsts_;
  FlowSinkTable flows_;
  // Flows unbound while their posted bind was still in flight; each entry
  // cancels that one bind when it lands.
  std::vector<FlowId> dead_binds_;
  ReceiveFn default_sink_;
  std::function<void(Packet&)> send_hook_;
  SimTime stack_last_release_ = SimTime::zero();
  bool pump_scheduled_ = false;
  std::size_t pump_rr_ = 0;  // round-robin cursor over destinations
  Rng rng_;
  // Offload storage: packets parked for the ToR, keyed by return time.
  std::int64_t offload_stored_bytes_ = 0;
  std::int64_t offload_stored_packets_ = 0;
};

// ---------------------------------------------------------------------------
// ToR switch: time-flow table + per-uplink calendar queues (TO) or FIFOs
// (TA/static), EQO-based congestion detection, offload and push-back hooks.
class TorSwitch {
 public:
  TorSwitch(Network& net, NodeId id);

  NodeId id() const { return id_; }
  TimeFlowTable& tft() { return tft_; }
  const TimeFlowTable& tft() const { return tft_; }

  // Multipath hashing granularity, set by deploy_routing() (Tab. 1).
  void set_multipath(MultipathMode m) { mp_mode_ = m; }
  MultipathMode multipath() const { return mp_mode_; }

  // Ingress entry points.
  void from_host(Packet&& p);
  void from_optical(Packet&& p, PortId in_port);
  void from_electrical(Packet&& p);

  // Slice boundary on this node's clock: rotate calendar queues, then kick
  // every uplink's drain loop.
  void on_rotation(std::int64_t abs_slice);

  // Telemetry (§4.2 monitoring APIs). Bytes parked in this switch's uplink
  // queues (calendar days + FIFO), kept as a running total.
  std::int64_t buffer_bytes() const { return buffered_bytes_; }
  // Packets parked in this switch's uplink queues (calendar days + FIFO) —
  // the census side of the packet-conservation invariant.
  std::int64_t queued_packets() const;
  std::int64_t peak_buffer_bytes() const { return peak_buffer_; }
  std::int64_t port_buffer_bytes(PortId port) const;
  std::int64_t uplink_tx_bytes(PortId port) const {
    return uplinks_[static_cast<std::size_t>(port)].tx_bytes;
  }
  // Cumulative bytes received from the optical fabric on `port` (the rx
  // side of the per-circuit conservation ledger the health scanner audits).
  std::int64_t uplink_rx_bytes(PortId port) const {
    return uplinks_[static_cast<std::size_t>(port)].rx_bytes;
  }
  // Self-reported counter views: what this node *claims* its counters say.
  // Equal to the ground truth unless a telemetry_skew fault scales the
  // node's reports by 1 + ppm/1e6. Detectors that must not trust
  // self-reports (services::HealthScanner) read only these.
  std::int64_t reported_uplink_tx_bytes(PortId port) const {
    return reported(uplink_tx_bytes(port));
  }
  std::int64_t reported_uplink_rx_bytes(PortId port) const {
    return reported(uplink_rx_bytes(port));
  }
  int num_uplinks() const { return static_cast<int>(uplinks_.size()); }
  std::int64_t drops_no_route() const { return drops_no_route_->value(); }
  std::int64_t drops_congestion() const { return drops_congestion_->value(); }
  std::int64_t slice_misses() const { return slice_misses_->value(); }
  // Packets that arrived on an optical circuit outside the slice (or its
  // immediate successor, covering fabric latency) they were launched for —
  // the receive-side symptom of a desynchronized clock somewhere.
  std::int64_t wrong_slice_arrivals() const {
    return wrong_slice_arrivals_->value();
  }
  std::int64_t deferrals() const { return deferrals_; }
  std::int64_t trims() const { return trims_; }
  std::int64_t offloads() const { return offloads_; }
  std::int64_t pushbacks_sent() const { return pushbacks_sent_; }
  std::int64_t delivered_local() const { return delivered_local_; }

 private:
  friend class Network;
  struct Uplink {
    std::unique_ptr<CalendarQueuePort> cal;
    net::FifoQueue fifo;
    std::unique_ptr<QueueOccupancyEstimator> eqo;
    SimTime busy_until = SimTime::zero();
    SimTime last_eqo_drain = SimTime::zero();
    bool drain_scheduled = false;
    std::int64_t tx_bytes = 0;
    std::int64_t rx_bytes = 0;
    Uplink() : fifo(0) {}
  };

  std::int64_t reported(std::int64_t v) const {
    if (report_factor_ == 1.0) return v;
    return static_cast<std::int64_t>(
        static_cast<double>(v) * report_factor_ + 0.5);
  }

  void route(Packet&& p);
  void apply_action(Packet&& p, const net::SourceHop& hop, SliceId arr);
  void enqueue_optical(Packet&& p, PortId port, SliceId dep, SliceId arr);
  // Parks `p` in `port`'s calendar queue `rank` slices ahead, stamped for
  // departure slice `dep`; counts and traces it, and kicks the drain when
  // that queue is the active one. False, with `p` not moved, when the queue
  // has no room for its bytes.
  bool admit(Packet& p, PortId port, SliceId dep, int rank);
  // Counts `bytes` parked on `port` into the buffer total and its peak.
  void note_parked(PortId port, PacketId pid, std::int64_t bytes);
  void drop_congested(PortId port, const Packet& p);
  // `rank` is the intended queue's distance from the active one.
  void on_congested(Packet&& p, PortId port, SliceId dep, SliceId arr,
                    int rank);
  bool try_defer(Packet& p, SliceId arr);
  void send_pushback(const Packet& p, SliceId slice);
  void offload_to_host(Packet&& p, std::int64_t target_abs);
  void handle_offload_return(Packet&& p);
  void try_send(PortId port);
  // Puts `p`, just taken off `port`'s queues, on the wire for `ser` and
  // schedules the next drain for when it has left.
  void launch(PortId port, Packet&& p, SimTime ser);
  void schedule_drain(PortId port, SimTime at);
  // Evacuate calendar + FIFO uplink queues and re-route every packet from
  // scratch (quarantine entry: the re-route lands them on the electrical
  // fabric while this node's optical egress is gated).
  void flush_and_reroute();
  void deliver_local(Packet&& p);
  // Admissible bytes for the queue at `rank` right now (§5.2).
  std::int64_t admissible_bytes(int rank) const;
  SliceId current_slice() const;
  std::int64_t current_abs_slice() const;
  // Local (sync-offset) view of the current slice's usable drain window.
  SimTime window_start() const;
  SimTime window_end() const;

  Network& net_;
  NodeId id_;
  TimeFlowTable tft_;
  MultipathMode mp_mode_ = MultipathMode::None;
  std::vector<Uplink> uplinks_;
  std::vector<std::unique_ptr<net::Link>> downlinks_;  // to local hosts
  std::int64_t local_abs_slice_ = 0;
  SimTime local_slice_start_ = SimTime::zero();
  Rng rng_;
  // Telemetry-skew gray fault: scale factor applied to self-reported
  // counters (1.0 = honest). Written via Network::set_telemetry_skew.
  double report_factor_ = 1.0;

  std::int64_t buffered_bytes_ = 0;  // buffer_bytes()
  std::int64_t peak_buffer_ = 0;
  // Registry-backed ("tor.drops"{class=...,node=N}, "tor.slice_misses"
  // {node=N}); the accessors above are shims over these cells.
  telemetry::Counter* drops_no_route_;
  telemetry::Counter* drops_congestion_;
  telemetry::Counter* slice_misses_;
  telemetry::Counter* wrong_slice_arrivals_;
  std::int64_t deferrals_ = 0;
  std::int64_t trims_ = 0;
  std::int64_t offloads_ = 0;
  std::int64_t pushbacks_sent_ = 0;
  std::int64_t delivered_local_ = 0;
};

// ---------------------------------------------------------------------------
// Network: owns the simulator, fabrics, switches, and hosts.
class Network {
 public:
  Network(NetworkConfig cfg, optics::Schedule schedule,
          optics::OcsProfile profile);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator& sim() { return sim_; }
  const NetworkConfig& config() const { return cfg_; }
  const optics::Schedule& schedule() const { return schedule_; }
  optics::OpticalFabric& optical() { return *optical_; }
  net::ElectricalFabric* electrical() { return electrical_.get(); }
  const SyncModel& sync() const { return *sync_; }
  // Mutable clock access for fault injection (drift ramps, steps, beacon
  // suppression) and for the watchdog's resync probes.
  ClockModel& clock() { return *sync_; }

  int num_tors() const { return cfg_.num_tors; }
  int num_hosts() const {
    return cfg_.num_tors * cfg_.hosts_per_tor;
  }
  TorSwitch& tor(NodeId n) { return *tors_[static_cast<std::size_t>(n)]; }
  Host& host(HostId h) { return *hosts_[static_cast<std::size_t>(h)]; }
  HostId host_id(NodeId tor, int local) const {
    return tor * cfg_.hosts_per_tor + local;
  }
  NodeId tor_of(HostId h) const { return h / cfg_.hosts_per_tor; }

  // Starts slice-rotation timers and the resync-beacon protocol (TO mode).
  // Idempotent.
  void start();
  bool started() const { return started_; }

  // ---- sharded parallel engine ----
  // Partition the per-ToR event streams into lanes (lane id == ToR id) and
  // install a ShardedEngine with `workers` threads of execution (worker 0
  // is the coordinating thread). Called by the constructor when
  // cfg.shards > 0, before start(). No-op for workers <= 0 or if already
  // sharded.
  void enable_sharding(int workers);
  bool sharded() const { return sim_.sharded(); }
  parallel::ShardedEngine* sharded_engine() { return engine_.get(); }

  // ---- per-node safe-mode controls (driven by services::SyncWatchdog) ----
  // Extra guard margin applied to *both* ends of this node's drain window on
  // top of the global head_guard_/tail_margin_ — widening trades duty cycle
  // for tolerance of clock error beyond the advertised bound. Clamped so at
  // least a quarter of the nominal window survives.
  void set_node_guard_extra(NodeId n, SimTime extra);
  SimTime node_guard_extra(NodeId n) const {
    return guard_extra_[static_cast<std::size_t>(n)];
  }
  // Quarantine: gate the node's optical egress entirely and divert traffic
  // from/to it onto the electrical fabric (when one exists). Entering
  // quarantine evacuates the node's calendar queues via a deferred flush so
  // parked packets re-route instead of rotting until re-admission. Each
  // `true` is one hold and each `false` releases one: the node stays fenced
  // while any holder (the sync watchdog's or the health scanner's ladder)
  // still holds it, so the flush runs on the first hold only.
  void set_node_quarantined(NodeId n, bool q);
  bool node_quarantined(NodeId n) const {
    return quarantine_holds_[static_cast<std::size_t>(n)] != 0;
  }

  // Telemetry-skew gray fault (services::FaultPlan): node n self-reports
  // its counters scaled by 1 + ppm/1e6 until cleared with ppm = 0. Ground
  // truth is untouched — only the reported_* accessors lie.
  void set_telemetry_skew(NodeId n, double ppm) {
    tors_[static_cast<std::size_t>(n)]->report_factor_ = 1.0 + ppm / 1e6;
  }

  // Receive-side desync symptom tap: fired (synchronously, from the
  // arrival path) when a ToR observes a wrong-slice arrival, with the
  // *observing* node — the observer cannot tell which sender drifted.
  using SymptomHook = std::function<void(NodeId, SimTime)>;
  void set_wrong_slice_arrival_hook(SymptomHook hook) {
    arrival_hook_ = std::move(hook);
  }

  // ---- transactional deploy support (core::Controller) ----
  // Fired just before node n processes its rotation into absolute slice k —
  // the boundary at which a committed transaction's staged state activates
  // on that node's clock.
  using RotationHook = std::function<void(NodeId, std::int64_t)>;
  void set_rotation_hook(RotationHook hook) {
    rotation_hook_ = std::move(hook);
  }

  // Controller callback: node n is now forwarding on deployment epoch `e`.
  // The network tracks per-node epochs and counts mixed-epoch exposure —
  // slices during which at least two nodes forwarded on different epochs
  // (the control-plane analogue of the clock-desync hazard). In calendar
  // mode a slice is charged when its last node rotates in while the fabric
  // is mixed; without rotations (TA / period 1) each transition into a
  // mixed state is charged once instead.
  void note_node_epoch(NodeId n, std::uint64_t e);
  std::uint64_t node_epoch(NodeId n) const {
    return node_epoch_[static_cast<std::size_t>(n)];
  }
  // True while at least two nodes forward on different epochs.
  bool epoch_mixed() const { return epoch_mixed_; }
  std::int64_t mixed_epoch_slices() const;

  // One beacon exchange with node `n` right now (the watchdog's backoff
  // re-probe path; the periodic protocol uses the same primitive). Returns
  // false when the beacon is suppressed by an active fault.
  bool probe_beacon(NodeId n);

  // Swap the optical schedule (TA reconfiguration); `delay` is the OCS
  // retargeting time. Rotation timers adapt to the new period.
  void reconfigure(optics::Schedule next, SimTime delay);

  // Per-lane id allocation in sharded mode: each lane (and the control
  // queue, slot 0) owns a disjoint id space, so allocation is a pure
  // function of the calling lane's own history — no shared counter, no
  // dependence on cross-lane execution order. The high bits carry the lane
  // slot; 2^40 ids per lane is far beyond any run.
  PacketId next_packet_id() {
    if (!sim_.sharded()) return ++packet_seq_;
    const auto idx = static_cast<std::size_t>(sim_.current_lane() + 1);
    return ((static_cast<PacketId>(idx) + 1) << 40) | ++lane_packet_seq_[idx];
  }
  // Per-network flow-id allocation. Flow ids seed multipath hashing, so they
  // must be a function of this network's history alone — a process-global
  // allocator would make results depend on whatever other simulations ran
  // (or run concurrently on other campaign worker threads) in the process.
  FlowId alloc_flow_id() {
    if (!sim_.sharded()) return ++flow_seq_;
    const auto idx = static_cast<std::size_t>(sim_.current_lane() + 1);
    return ((static_cast<FlowId>(idx) + 1) << 40) | ++lane_flow_seq_[idx];
  }
  Rng fork_rng() { return master_rng_.fork(); }

  // A pointer-sized cell that this network keeps until it dies, for an
  // owner whose posted callbacks may outlive it: the owner points the cell
  // at itself and clears it when it dies, and a callback that finds it
  // cleared does nothing. Cells never move. Call from a serial context.
  void*& liveness_cell() { return cells_[cells_.emplace(nullptr)]; }

  // Aggregate drop/delivery counters across all components.
  struct Totals {
    std::int64_t delivered = 0;
    std::int64_t fabric_drops = 0;
    std::int64_t congestion_drops = 0;
    std::int64_t no_route_drops = 0;
    std::int64_t electrical_drops = 0;
  };
  Totals totals() const;

  // ---- packet-conservation taps (chaos::InvariantMonitor) ----
  // Every packet that entered the fabric through a host stack. Fabricated
  // control packets (push-back broadcasts) bypass this tap and are consumed
  // before the delivery counters, so they cancel out of the conservation
  // ledger entirely. Atomic: host stacks run on worker lanes when sharded.
  std::int64_t packets_injected() const {
    return packets_injected_.load(std::memory_order_relaxed);
  }
  // Census of packets parked somewhere in the fabric right now: ToR uplink
  // queues (calendar days + FIFOs) plus host offload storage. At quiescence
  //   injected == delivered + drops + queued_packets()
  // must hold exactly.
  std::int64_t queued_packets() const;

  // Traffic collection (§5.2): per-(src ToR, dst ToR) bytes since last call.
  std::vector<std::vector<std::int64_t>> collect_tm();

  // Telemetry tap: invoked for every Data packet as it reaches its
  // destination host (per-packet delay studies; Appx. B's delay columns).
  // Sharded: fires on the destination ToR's worker lane — the callback must
  // tolerate concurrent invocation (atomics or per-lane accumulation).
  using DeliveryProbe = std::function<void(const Packet&)>;
  void set_delivery_probe(DeliveryProbe probe) {
    delivery_probe_ = std::move(probe);
  }
  const DeliveryProbe& delivery_probe() const { return delivery_probe_; }

 private:
  friend class TorSwitch;
  friend class Host;

  // Self-rescheduling rotation chain: rotation k of node n fires at the
  // node's *clock-local* view of the global boundary k*slice_duration, so a
  // drifting clock physically moves the node's slice windows.
  void arm_rotation(NodeId n, std::int64_t k);
  void beacon_round();
  bool beacon_exchange(NodeId n, bool probe);
  // Deliver a wrong-slice-arrival symptom to arrival_hook_. The hook (the
  // sync watchdog) is control-plane state; when the symptom fires on a
  // worker lane it crosses to the control queue through the barrier.
  void notify_wrong_slice(NodeId n, SimTime at);

  NetworkConfig cfg_;
  optics::Schedule schedule_;
  sim::Simulator sim_;
  Rng master_rng_;
  std::unique_ptr<SyncModel> sync_;
  std::unique_ptr<optics::OpticalFabric> optical_;
  std::unique_ptr<net::ElectricalFabric> electrical_;
  std::vector<std::unique_ptr<TorSwitch>> tors_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unique_ptr<parallel::ShardedEngine> engine_;
  Slab<void*> cells_;  // liveness_cell()s
  PacketId packet_seq_ = 0;
  std::atomic<std::int64_t> packets_injected_{0};
  FlowId flow_seq_ = 0;
  // Per-lane id counters (slot 0 = control queue, slot n+1 = lane n).
  std::vector<std::int64_t> lane_packet_seq_;
  std::vector<std::int64_t> lane_flow_seq_;
  bool started_ = false;
  DeliveryProbe delivery_probe_;
  // Derived slice-window margins (see network.cpp).
  SimTime head_guard_ = SimTime::zero();
  SimTime tail_margin_ = SimTime::zero();
  // Per-node safe-mode state (sync watchdog).
  std::vector<SimTime> guard_extra_;
  std::vector<int> quarantine_holds_;  // per node
  SymptomHook arrival_hook_;
  telemetry::Counter* beacons_ok_ = nullptr;
  telemetry::Counter* beacons_lost_ = nullptr;
  // Transactional-deploy state: per-node deployment epochs, each node's
  // latest rotation slice, and the mixed-epoch exposure counter.
  void note_rotation_epoch(NodeId n, std::int64_t abs_slice);
  void refresh_epoch_mixed();
  RotationHook rotation_hook_;
  std::vector<std::uint64_t> node_epoch_;
  std::vector<std::int64_t> node_abs_;
  bool epoch_mixed_ = false;
  std::int64_t last_counted_abs_ = 0;
  telemetry::Counter* mixed_epoch_slices_ = nullptr;
};

}  // namespace oo::core
