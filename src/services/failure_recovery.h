// Failure recovery: event-driven detection and masking of optical faults
// (the ShareBackup-style resilience the paper's related work motivates,
// expressed through the ordinary deploy_topo/deploy_routing workflow).
//
// Detection subscribes to the fabric's loss-of-signal alarms
// (OpticalFabric::on_port_down / on_port_up), so an idle dark port is
// noticed after the transceiver's LOS debounce — no traffic-induced drops
// required, unlike the seed's drop-count poller. Recovery recompiles the
// intended ("baseline") schedule minus circuits touching failed ports and
// atomically swaps the routing overlay (clear superseded entries + install
// the fresh ones inside one simulator event). Repairs are auto re-admitted
// the same way. Failed deploys — e.g. an injected control-plane outage —
// are retried with capped exponential backoff. A degraded-mode hook tells
// interested services (hybrid elephant steering) when optical capacity is
// reduced so traffic can lean on the electrical fabric.
//
// Robustness telemetry: detection latency and MTTR samplers, cumulative
// degraded time and availability fraction, per-transition counters.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/controller.h"
#include "core/network.h"

namespace oo::services {

class FailureRecovery {
 public:
  // `reroute` maps a repaired schedule to the replacement paths (the
  // architecture's routing scheme, e.g. routing::direct_to).
  using RerouteFn =
      std::function<std::vector<core::Path>(const optics::Schedule&)>;
  // Degraded-mode hook: invoked with true when the first port fails, false
  // when the last failed port is repaired.
  using DegradedFn = std::function<void(bool degraded)>;

  // `scrub` is an optional periodic consistency pass (drop-counter check,
  // the seed's legacy detector) kept as a safety net behind the LOS
  // subscription; SimTime::zero() disables it.
  FailureRecovery(core::Network& net, core::Controller& ctl,
                  RerouteFn reroute, SimTime scrub = SimTime::millis(1));
  ~FailureRecovery() { *alive_ = false; }
  FailureRecovery(const FailureRecovery&) = delete;
  FailureRecovery& operator=(const FailureRecovery&) = delete;

  // Subscribe to the fabric's LOS alarms (and start the optional scrub).
  // The first start() captures the current schedule as the baseline, the
  // full intended schedule that recovery prunes from and repairs re-admit
  // to.
  void start();
  // Cancel the scrub timer, pending backoff retries, the subscription and
  // the callbacks of deploys still in flight.
  void stop();
  bool running() const { return started_; }

  void set_degraded_hook(DegradedFn fn) { degraded_hook_ = std::move(fn); }

  // Immediately reroute around every currently failed port (also invoked by
  // LOS alarms and repairs). Returns false — and arms a backoff retry — if
  // rerouting or either deploy fails.
  bool recover_now();

  // ---- robustness telemetry ----
  int recoveries() const { return recoveries_; }
  int retries() const { return retries_; }
  std::int64_t port_downs() const { return port_downs_; }
  std::int64_t port_ups() const { return port_ups_; }
  // Failure-to-LOS-alarm latency per detected failure, microseconds.
  const PercentileSampler& detect_latency_us() const {
    return detect_latency_us_;
  }
  // Failure-to-service-restored (successful redeploy or physical repair)
  // per incident, microseconds.
  const PercentileSampler& mttr_us() const { return mttr_us_; }
  // Cumulative time with >= 1 failed port (open interval included).
  SimTime degraded_time() const;
  // Fraction of time since start() with full optical capacity.
  double availability() const;
  bool degraded() const { return failed_count_ > 0; }
  const std::string& last_error() const { return last_error_; }

 private:
  struct Incident {
    NodeId node;
    PortId port;
    SimTime began;
  };

  // The baseline schedule minus circuits that touch a failed port.
  optics::Schedule healthy_schedule() const;
  void on_down(NodeId node, PortId port, SimTime at);
  void on_up(NodeId node, PortId port, SimTime at);
  void schedule_retry();
  void close_incidents(SimTime end);

  core::Network& net_;
  core::Controller& ctl_;
  RerouteFn reroute_;
  SimTime scrub_;
  optics::Schedule baseline_;
  // Gates the LOS listeners, retries and deploy callbacks; false once the
  // recovery is stopped or destroyed.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  sim::ScopedEventHandle scrub_handle_;
  // Plain handle: an aborted commit can arm a retry while an earlier one
  // is still pending, and both stay live.
  sim::EventHandle retry_handle_;
  std::vector<Incident> open_incidents_;
  std::int64_t seen_drops_ = 0;
  int recoveries_ = 0;
  int retries_ = 0;
  std::int64_t port_downs_ = 0;
  std::int64_t port_ups_ = 0;
  int failed_count_ = 0;
  SimTime degraded_since_ = SimTime::zero();
  SimTime degraded_ns_ = SimTime::zero();
  SimTime started_at_ = SimTime::zero();
  SimTime backoff_;
  PercentileSampler detect_latency_us_;
  PercentileSampler mttr_us_;
  DegradedFn degraded_hook_;
  std::string last_error_;
  bool started_ = false;
};

}  // namespace oo::services
