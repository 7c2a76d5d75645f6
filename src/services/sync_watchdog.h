// Sync watchdog: detection of desynchronized ToR clocks and a graceful,
// per-node degradation ladder (the recovery half of the clock fault domain;
// see core/sync.h for the injection half).
//
// Detection uses *observable symptoms only* — the watchdog never reads a
// node's true clock offset, because no real controller could:
//   - sender-attributed fabric timing violations (boundary/guard drops and
//     wrong-slice launches reported by OpticalFabric::on_timing_violation);
//     these name the drifted sender exactly and can escalate all the way
//     to quarantine;
//   - self-attributed wrong-slice *arrivals* (Network's arrival hook): the
//     observer cannot tell whether the sender or its own rotation drifted,
//     so these only ever widen the observer's guard band — never quarantine
//     a node on another node's say-so;
//   - beacon staleness: a node whose last resync is older than three resync
//     intervals is re-probed with capped exponential backoff, and flagged
//     (widen-only evidence) until a beacon gets through.
//
// Response is a three-rung services::Ladder per ToR:
//   Healthy -> Widened: each time the symptom count inside the sliding
//     window crosses the threshold, the node's effective guard band grows
//     by one step of 2 x sync_error on both window edges (duty cycle
//     shrinks, §7 trade), up to three steps.
//   Widened -> Quarantined: further sender-attributed evidence past the
//     last widening fences the node off the optical fabric entirely;
//     traffic from/to it rides the electrical fabric (hybrid architectures
//     only — without one the ladder tops out at max widening). The
//     ladder's steering hook fires here.
//   -> Healthy: after three consecutive check rounds with a fresh in-bound
//     beacon and zero symptoms, the node is re-admitted and its guard
//     override cleared.
//
// All decisions are deferred one simulator event, so escalations triggered
// from inside fabric/drain callbacks never re-enter the structures that
// fired them. Identical seeds yield identical detection times, quarantine
// sets, and traces.
#pragma once

#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/network.h"
#include "services/ladder.h"

namespace oo::core {
class Controller;
}

namespace oo::services {

class SyncWatchdog {
 public:
  enum class TorState { Healthy, Widened, Quarantined };

  explicit SyncWatchdog(core::Network& net);
  SyncWatchdog(const SyncWatchdog&) = delete;
  SyncWatchdog& operator=(const SyncWatchdog&) = delete;

  // The per-ToR ladder; rungs are TorState values. Its steering hook fires
  // on quarantine entry (true) and re-admission from it (false).
  Ladder& ladder() { return ladder_; }

  // Wire the watchdog to the control plane so staleness probes route to the
  // current quorum leader: while the controller is crashed or no leader is
  // elected, probes are suppressed (and counted) instead of being burned on
  // a control plane that cannot answer. Optional — an unwired watchdog (or
  // a replicas=1 run) behaves exactly as before.
  void set_controller(const core::Controller* ctl);

  // Subscribe to fabric violations + arrival symptoms and start the scan.
  void start();
  // Stop scanning and drop subscriptions. In-effect widenings/quarantines
  // stay as they are (the operator decided to fly blind, not to re-admit).
  void stop();
  bool running() const { return started_; }

  TorState state(NodeId n) const {
    return static_cast<TorState>(ladder_.rung(n));
  }

  // ---- robustness telemetry ----
  std::int64_t desyncs_detected() const { return desyncs_->value(); }
  std::int64_t guard_widenings() const { return widenings_->value(); }
  std::int64_t quarantines() const { return quarantines_->value(); }
  std::int64_t readmissions() const { return readmissions_->value(); }
  std::int64_t probes_ok() const { return probes_ok_->value(); }
  std::int64_t probes_lost() const { return probes_lost_->value(); }
  // First symptom to first response, per detected desync (microseconds).
  const PercentileSampler& time_to_detect_us() const {
    return time_to_detect_us_;
  }
  // Quarantine-entry to re-admission, per quarantine (microseconds).
  const PercentileSampler& quarantine_us() const { return quarantine_us_; }

 private:
  struct NodeState {
    std::vector<SimTime> window;  // recent symptom timestamps
    SimTime first_symptom = SimTime::zero();
    bool detected = false;
    bool escalate_pending = false;
    // Whether the current window holds sender-attributed (fabric) evidence
    // — the only kind allowed to push past widening into quarantine.
    bool sender_evidence = false;
    bool symptom_since_check = false;
    int widenings = 0;
    SimTime quarantined_at = SimTime::zero();
    // Beacon staleness tracking.
    SimTime last_seen_resync = SimTime::zero();
    bool stale_flagged = false;
    bool probe_pending = false;
    SimTime backoff = SimTime::zero();
  };

  void record_symptom(NodeId n, SimTime at, bool sender_attributed);
  void escalate(NodeId n);
  void check_round();
  void probe(NodeId n);
  // Schedules probe(n) at `when`, dropped if the watchdog stops first.
  void schedule_probe(NodeId n, SimTime when);
  void readmit(NodeId n);

  core::Network& net_;
  const core::Controller* ctl_ = nullptr;  // optional leader-awareness
  telemetry::Counter* probes_suppressed_ = nullptr;  // registered on wiring
  Ladder ladder_;
  std::vector<NodeState> nodes_;
  SimTime widen_step_ = SimTime::zero();
  SimTime beacon_timeout_ = SimTime::zero();
  std::shared_ptr<bool> alive_;  // gates the fabric/network subscriptions
  sim::ScopedEventHandle check_handle_;
  bool started_ = false;
  telemetry::Counter* desyncs_;
  telemetry::Counter* widenings_;
  telemetry::Counter* quarantines_;
  telemetry::Counter* readmissions_;
  telemetry::Counter* probes_ok_;
  telemetry::Counter* probes_lost_;
  telemetry::Counter* wrong_slice_seen_;
  PercentileSampler time_to_detect_us_;
  PercentileSampler quarantine_us_;
};

}  // namespace oo::services
