// Always-on invariant monitor: a registry of cheap safety checks woven
// through the simulator, network, control plane, and transport layers. The
// monitor is the "is the simulation still telling the truth?" half of the
// chaos tooling (src/chaos/fuzz.h generates the lies to test it with):
//
//   - packet conservation: every packet injected by a host stack is
//     eventually delivered, dropped (with a counted reason), or still
//     parked in a queue the census can see — checked exactly at drain,
//     when all packet-carrying events have fired;
//   - per-agent committed-epoch monotonicity: a ToR's committed deployment
//     epoch never goes backwards, across crashes, failovers, and fences;
//   - quorum safety: at most one live leader per term, and all replicas
//     agree on the committed log prefix (up to the smaller commit index);
//   - fluid-solver byte conservation: every active flow's remaining bytes
//     stay inside [0, total] at a legal rate;
//   - no event scheduled into the past (via sim::InvariantSink);
//   - remediation ladder legality, one rule for the sync watchdog's and the
//     health scanner's services::Ladder: a node moves one rung up, or from
//     above rung 0 back to it — never skipping a rung either way (e.g.
//     Healthy -> Quarantined, or Quarantined -> Widened). A violation
//     carries its ladder's name, "watchdog_ladder" or "scanner_ladder";
//   - queue-depth bounds: per-port buffered bytes stay inside
//     [0, calendar + FIFO capacity].
//
// Cost contract: detached (no monitor constructed, or attach_* not called)
// every hook in the hot path is a null-pointer test or an untaken branch —
// the same zero-overhead bar as the flight recorder. Attached, the polled
// checks run every `interval` of virtual time, so overhead scales with
// fabric size x poll rate, not packet rate (bench/invariant_overhead.cpp
// holds it under 2% on the engine-throughput workload).
//
// On violation the monitor captures a flight-recorder-style context row
// (virtual time, executed-event count, human-readable detail), bumps the
// "chaos.violations" metric, warns once per process, and keeps running —
// campaigns want the full violation list, not the first crash.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/network.h"

namespace oo::core {
class Controller;
class ControllerQuorum;
}  // namespace oo::core
namespace oo::services {
class Ladder;
}
namespace oo::transport {
class FluidSolver;
}
namespace oo::parallel {
class ShardedEngine;
}

namespace oo::chaos {

struct Violation {
  std::string invariant;  // registry name, e.g. "packet_conservation"
  SimTime at = SimTime::zero();
  std::int64_t events_executed = 0;  // simulator progress when it tripped
  std::string detail;                // what was observed vs. expected
};

class InvariantMonitor : public sim::InvariantSink {
 public:
  // Constructing the monitor attaches the simulator-side sink (past-event
  // detection); everything else is opt-in via attach_*.
  explicit InvariantMonitor(core::Network& net);
  ~InvariantMonitor() override;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // Optional layer attachments. All pointers must outlive the monitor (or
  // the monitor must be destroyed first — the usual stack order).
  void attach_controller(const core::Controller* ctl);
  void attach_quorum(const core::ControllerQuorum* quorum);
  void attach_ladder(services::Ladder* ladder);  // installs its tap
  void attach_fluid(const transport::FluidSolver* fluid);
  // Sharded engine: routes its barrier-time violations (cross-shard packet
  // conservation, lane past-schedule reports, custom barrier checks) into
  // this monitor's violation list instead of the warn-once fallback. The
  // handler fires in the engine's serial barrier phase, so no locking is
  // needed here.
  void attach_parallel(parallel::ShardedEngine* engine);

  // The legality check behind attach_ladder's tap, public so the rule is
  // unit-testable without staging a real quarantine. from/to are rungs of
  // `ladder`.
  void check_ladder_transition(const services::Ladder& ladder, NodeId node,
                               int from, int to);

  // Custom invariant: `fn` returns an empty string while the invariant
  // holds, a description once it breaks. Evaluated on every poll round and
  // at drain (the chaos_fuzz experiment's planted bug rides this).
  using CheckFn = std::function<std::string()>;
  void add_check(std::string name, CheckFn fn);

  // Arm the periodic poll (virtual time). Idempotent; interval <= 0 keeps
  // the monitor purely event-driven + drain-checked.
  void start(SimTime interval = SimTime::micros(100));

  // Run every polled check right now.
  void check_now();
  // Final pass once the simulator has drained: everything check_now covers
  // plus the exact packet-conservation ledger, which is only a valid
  // equality at quiescence (in-flight packets have either landed or are
  // visible to the queue census).
  void check_at_drain();

  bool ok() const { return total_violations_ == 0; }
  // First kViolationCap violations, in detection order.
  const std::vector<Violation>& violations() const { return violations_; }
  std::int64_t total_violations() const { return total_violations_; }
  // One line per violation — the campaign/CI failure artifact.
  std::string report() const;

  // sim::InvariantSink
  void on_past_schedule(SimTime when, SimTime now, const char* tag) override;

 private:
  static constexpr std::size_t kViolationCap = 256;

  void violate(const char* invariant, std::string detail);
  void poll_round();
  void check_epochs();
  void check_quorum();
  void check_fluid();
  void check_queues();
  void check_custom();
  void check_conservation();

  core::Network& net_;
  const core::Controller* ctl_ = nullptr;
  const core::ControllerQuorum* quorum_ = nullptr;
  const transport::FluidSolver* fluid_ = nullptr;
  std::vector<std::pair<std::string, CheckFn>> custom_;
  // Per-node high-water marks for the monotonicity checks.
  std::vector<std::uint64_t> seen_node_epoch_;
  std::vector<std::uint64_t> seen_agent_epoch_;
  std::vector<Violation> violations_;
  std::int64_t total_violations_ = 0;
  telemetry::Counter* violations_ctr_;
  sim::ScopedEventHandle poll_;
  SimTime interval_ = SimTime::zero();
  bool started_ = false;
};

}  // namespace oo::chaos
