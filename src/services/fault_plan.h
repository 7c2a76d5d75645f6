// Deterministic, seeded fault-injection engine. A FaultPlan is a timed
// script of fault events — port fail/repair, periodic link flaps with a
// configurable duty cycle, BER-driven packet corruption, OCS
// reconfiguration stalls, and control-plane deploy delay/outage — executed
// through the discrete-event simulator, so a plan replayed with the same
// seed reproduces bit-identical drop counters and recovery timestamps.
// Plans are built programmatically or loaded from JSON (common/json), the
// same configuration channel as the static hardware description (§4.1).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/controller.h"
#include "core/network.h"

namespace oo::services {

enum class FaultKind {
  PortFail,        // transceiver/fiber goes dark
  PortRepair,      // light restored
  LinkFlap,        // periodic fail/repair cycles (duty cycle = down/period)
  Ber,             // set a port's bit-error rate (0 clears it)
  ReconfigStall,   // extend an in-progress OCS retargeting
  ControlDelay,    // controller deploys take effect late for a window
  ControlFail,     // controller rejects every deploy for a window
  ClockDriftRamp,  // node's clock drifts at `ppm` for `duration` (0 = sticky)
  ClockStep,       // instant clock offset jump by `extra` (PLL slip)
  SyncBeaconLoss,  // node's resync beacons lost for `duration` (0 = sticky)
  SyncOutage,      // fabric-wide beacon outage for `duration`
  SbMsgLoss,       // southbound messages to `node` dropped w.p. `ber`/prob
  SbMsgDelay,      // southbound messages to `node` delayed by `extra`
  SbMsgDup,        // southbound messages to `node` duplicated w.p. `ber`/prob
  TorInstallFail,  // node's install agent NACKs every prepare for a window
  ControllerCrash, // controller dies; restarts (with resync) after `duration`
  LeaderKill,      // kill the quorum leader; revive the replica after `duration`
  ReplicaPartition,// cut replica `node` off the replica mesh for `duration`
  LogDivergence,   // corrupt replica `node`'s log tail (sync self-heals it)
  BerRamp,         // transceiver aging: BER climbs a deterministic curve
  GrayPortPair,    // intermittent loss on one src->dst circuit (dirty mirror)
  SilentInstallFail, // agent acks installs but never applies them
  TelemetrySkew,   // node's self-reported counters are scaled by 1+ppm/1e6
};
inline constexpr int kNumFaultKinds = 23;

const char* fault_kind_name(FaultKind k);
// Inverse of fault_kind_name; throws std::runtime_error on unknown names.
FaultKind fault_kind_from_name(const std::string& name);

struct FaultEvent {
  // Absolute injection time (clamped to now at arm()).
  SimTime at = SimTime::zero();
  FaultKind kind = FaultKind::PortFail;
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  // Peer-node filter for GrayPortPair: loss applies only to circuits whose
  // far end lands on `peer` (kInvalidNode = every peer of (node, port)).
  NodeId peer = kInvalidNode;
  // Flap down-time / control-fault window (0 = sticky).
  SimTime duration = SimTime::zero();
  SimTime period = SimTime::zero();  // flap cycle length
  int cycles = 1;                    // flap repetitions
  double jitter = 0;  // flap period randomization, fraction of period
  double ber = 0;     // bit-error rate for Ber events
  double ppm = 0;     // clock drift rate for ClockDriftRamp events
  // Stall extension / injected deploy delay / clock step size.
  SimTime extra = SimTime::zero();

  bool operator==(const FaultEvent&) const = default;
};

// Eager plan-load validation (the TrafficSpec style: a bad parameter fails
// loudly at construction, never as a silent mid-run misbehavior). Throws
// std::runtime_error naming the event index and offending field. Checks the
// BER-family probability ranges ([0, 1] for Ber/BerRamp/GrayPortPair and the
// sb-message probabilities), BerRamp monotonicity (start_ber <= ber) and
// shape (duration > 0, cycles >= 1), GrayPortPair window (duration > 0), and
// TelemetrySkew factor (ppm != 0, ppm > -1e6 so the factor stays positive).
void validate_fault_event(const FaultEvent& ev, std::size_t index);

// Parse the {"events": [...]} body shared by FaultPlan::load_events and the
// chaos tooling (src/chaos). Every event object must carry a known "kind";
// any key outside the documented vocabulary is an error that names the
// offending key and lists the valid ones — a typoed "durtion_us" must fail
// loudly, not silently leave the fault at its default. Throws
// json::ParseError / std::runtime_error on bad input.
std::vector<FaultEvent> parse_fault_events(const json::Value& plan);
// Inverse: serialize events back to the same {"events": [...]} shape.
// parse_fault_events(fault_events_to_json(evs)) == evs whenever every time
// field is a whole microsecond (the chaos fuzzer quantizes accordingly;
// JSON times are microsecond doubles).
json::Value fault_events_to_json(const std::vector<FaultEvent>& events);

class FaultPlan {
 public:
  // `ctl` is required only for control-plane fault classes.
  FaultPlan(core::Network& net, std::uint64_t seed,
            core::Controller* ctl = nullptr)
      : net_(net), ctl_(ctl), rng_(seed) {}

  FaultPlan& add(FaultEvent ev);
  // Convenience builders (all times absolute).
  FaultPlan& fail_port(SimTime at, NodeId node, PortId port);
  FaultPlan& repair_port(SimTime at, NodeId node, PortId port);
  // `cycles` fail/repair rounds: down for `down` out of every `period`,
  // with each cycle's start jittered by ±jitter*period from the plan's rng.
  FaultPlan& flap_port(SimTime at, NodeId node, PortId port, SimTime down,
                       SimTime period, int cycles, double jitter = 0.0);
  FaultPlan& set_ber(SimTime at, NodeId node, PortId port, double ber);
  FaultPlan& stall_reconfig(SimTime at, SimTime extra);
  FaultPlan& fail_control(SimTime at, SimTime duration);
  // Clock faults (§7's silent hazard). drift_clock ramps node `node` at
  // `ppm` for `duration` (0 = until further notice); lose_beacons
  // suppresses the node's resync beacons.
  FaultPlan& drift_clock(SimTime at, NodeId node, double ppm,
                         SimTime duration = SimTime::zero());
  FaultPlan& lose_beacons(SimTime at, NodeId node,
                          SimTime duration = SimTime::zero());
  // Southbound-channel faults (the transactional control plane's chaos
  // dimension). `node == kInvalidNode` applies the override fabric-wide.
  FaultPlan& lose_sb_msgs(SimTime at, NodeId node, double prob,
                          SimTime duration = SimTime::zero());
  FaultPlan& dup_sb_msgs(SimTime at, NodeId node, double prob,
                         SimTime duration = SimTime::zero());
  // Crash the controller at `at`; restart (with state resync) `duration`
  // later (0 = stays down).
  FaultPlan& crash_controller(SimTime at, SimTime duration);
  // Quorum faults (no-ops unless a ControllerQuorum is attached to `ctl`).
  // kill_leader kills whichever replica leads when the event fires and
  // revives it `restart_after` later (0 = stays dead); partition_replica
  // cuts `replica` off the replica<->replica mesh (ToR legs unaffected —
  // the split-brain shape) and heals after `duration`; diverge_log corrupts
  // `replica`'s log tail.
  FaultPlan& kill_leader(SimTime at, SimTime restart_after = SimTime::zero());
  FaultPlan& partition_replica(SimTime at, int replica,
                               SimTime duration = SimTime::zero());
  FaultPlan& diverge_log(SimTime at, int replica);
  // Gray failures (components that keep answering but lie). ramp_ber ages
  // the transceiver at (node, port): BER climbs from `start_ber` to `ber`
  // over `duration` in `steps` deterministic increments (no randomness —
  // identical seeds give identical aging curves). gray_pair drops packets
  // w.p. `prob` on circuits from (node, port) whose far end is `peer`
  // (kInvalidNode = any peer) for `duration` — silently: no LOS alarm, no
  // timing violation. silent_install makes node `node`'s agent ack installs
  // without applying them for `duration` (0 = sticky). skew_telemetry makes
  // node `node` self-report its tx/rx counters scaled by 1 + ppm/1e6.
  FaultPlan& ramp_ber(SimTime at, NodeId node, PortId port, double start_ber,
                      double target_ber, SimTime duration, int steps = 8);
  FaultPlan& gray_pair(SimTime at, NodeId node, PortId port, NodeId peer,
                       double prob, SimTime duration);
  FaultPlan& silent_install(SimTime at, NodeId node,
                            SimTime duration = SimTime::zero());
  FaultPlan& skew_telemetry(SimTime at, NodeId node, double ppm,
                            SimTime duration = SimTime::zero());

  // Append events from a JSON plan: {"events": [{"kind": "port_fail",
  // "at_us": 100, "node": 0, "port": 1}, ...]}. Times are microseconds
  // (double). Throws json::ParseError / std::runtime_error on bad input.
  FaultPlan& load_json(const std::string& text);
  FaultPlan& load_events(const json::Value& plan);

  // Schedule every event on the simulator. Call once, before/while running.
  void arm();

  std::size_t size() const { return events_.size(); }
  bool armed() const { return armed_; }

  // Telemetry: primitive fault actions fired so far, per class.
  std::int64_t injected(FaultKind k) const {
    return injected_[static_cast<std::size_t>(k)];
  }
  std::int64_t injected_total() const;
  // "class=count" pairs for logs/CSV.
  std::string summary() const;

 private:
  void fire(const FaultEvent& ev);
  void flap_cycle(const FaultEvent& ev, int remaining);
  // Bumps the per-class counter (and its registry mirror) and records a
  // FaultInject trace event.
  void count(FaultKind k, NodeId node = kInvalidNode,
             PortId port = kInvalidPort);
  // Records the un-doing of a fault (repair / restore) in the trace.
  void trace_repair(FaultKind k, NodeId node = kInvalidNode,
                    PortId port = kInvalidPort);

  core::Network& net_;
  core::Controller* ctl_;
  Rng rng_;
  std::vector<FaultEvent> events_;
  std::array<std::int64_t, kNumFaultKinds> injected_{};
  bool armed_ = false;
};

}  // namespace oo::services
