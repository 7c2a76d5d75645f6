#include "services/failure_recovery.h"

#include <algorithm>

namespace oo::services {

namespace {
// Routing overlays install at this fixed priority, above the architecture's
// base routes; each recovery clears the previous overlay before installing
// the next, so priorities never stack.
constexpr int kOverlayPriority = 1;
// Exponential-backoff retry policy for failed deploys.
constexpr SimTime kInitialBackoff = SimTime::micros(100);
constexpr SimTime kBackoffCap = SimTime::millis(10);
}  // namespace

FailureRecovery::FailureRecovery(core::Network& net, core::Controller& ctl,
                                 RerouteFn reroute, SimTime scrub)
    : net_(net),
      ctl_(ctl),
      reroute_(std::move(reroute)),
      scrub_(scrub),
      backoff_(kInitialBackoff) {}

void FailureRecovery::start() {
  if (started_) return;
  started_ = true;
  started_at_ = net_.sim().now();
  if (baseline_.num_nodes() == 0) baseline_ = net_.schedule();
  seen_drops_ = net_.optical().drops_failed();

  // LOS subscription. The fabric keeps its listener for the network's
  // lifetime; the shared flag lets stop() mute it without unhooking. A
  // flag muted by an earlier stop() stays muted for what captured it.
  if (!*alive_) alive_ = std::make_shared<bool>(true);
  auto alive = alive_;
  net_.optical().on_port_down(
      [this, alive](NodeId n, PortId p, SimTime at) {
        if (*alive) on_down(n, p, at);
      });
  net_.optical().on_port_up([this, alive](NodeId n, PortId p, SimTime at) {
    if (*alive) on_up(n, p, at);
  });

  if (scrub_ > SimTime::zero()) {
    // Legacy drop-delta scrub: catches failures injected before start()
    // (whose LOS alarm fired unheard) once they cost traffic.
    scrub_handle_ = net_.sim().schedule_every(
        net_.sim().now() + scrub_, scrub_,
        [this]() {
          const auto drops = net_.optical().drops_failed();
          if (drops > seen_drops_) {
            seen_drops_ = drops;
            recover_now();
          }
        },
        "recovery.scrub");
  }
}

void FailureRecovery::stop() {
  if (!started_) return;
  started_ = false;
  *alive_ = false;
  scrub_handle_.cancel();
  retry_handle_.cancel();
}

void FailureRecovery::on_down(NodeId node, PortId port, SimTime at) {
  ++port_downs_;
  net_.sim().metrics().counter("recovery.port_downs").inc();
  detect_latency_us_.add((net_.sim().now() - at).us());
  open_incidents_.push_back(Incident{node, port, at});
  if (failed_count_++ == 0) {
    degraded_since_ = at;
    if (degraded_hook_) degraded_hook_(true);
  }
  recover_now();
}

void FailureRecovery::on_up(NodeId node, PortId port, SimTime at) {
  ++port_ups_;
  net_.sim().metrics().counter("recovery.port_ups").inc();
  // Incidents on this port still open (recovery never landed — e.g. the
  // control plane was down the whole outage): the physical repair itself
  // restores service, so it closes them.
  for (auto it = open_incidents_.begin(); it != open_incidents_.end();) {
    if (it->node == node && it->port == port) {
      mttr_us_.add((at - it->began).us());
      it = open_incidents_.erase(it);
    } else {
      ++it;
    }
  }
  if (failed_count_ > 0 && --failed_count_ == 0) {
    degraded_ns_ += at - degraded_since_;
    if (degraded_hook_) degraded_hook_(false);
  }
  // Auto re-admit the repaired port's circuits from the baseline.
  recover_now();
}

optics::Schedule FailureRecovery::healthy_schedule() const {
  const optics::Schedule& base =
      baseline_.num_nodes() > 0 ? baseline_ : net_.schedule();
  optics::Schedule healthy(base.num_nodes(), base.uplinks(), base.period(),
                           base.slice_duration());
  for (const auto& c : base.circuits()) {
    if (net_.optical().port_failed(c.a, c.a_port) ||
        net_.optical().port_failed(c.b, c.b_port)) {
      continue;  // dark fiber: drop the circuit from the plan
    }
    healthy.add_circuit(c);
  }
  return healthy;
}

bool FailureRecovery::recover_now() {
  retry_handle_.cancel();
  const auto healthy = healthy_schedule();
  bool any = false;
  reroute_(healthy, [&any](const core::Path&) {
    any = true;
    return false;  // one path answers the question
  });
  if (!any) {
    last_error_ = "reroute produced no paths";
    schedule_retry();
    return false;
  }
  // Make-before-break through ONE transaction: clearing the superseded
  // overlay, installing the next one, and swapping the fabric are a single
  // epoch — all-or-nothing on every ToR, so no packet ever routes in the
  // gap and a lossy southbound can't leave the fabric half-recovered. The
  // deploy checks and compiles the reroute in one pass and installs nothing
  // when it is rejected (control-plane outage, infeasible path), so the
  // previous overlay keeps serving traffic. On an ideal channel the whole
  // transaction (and this callback) completes synchronously inside this
  // call; on a modeled southbound it resolves later — possibly after this
  // recovery is gone, hence the flag — and a failed commit re-arms the
  // retry backoff.
  const int retries = retries_;
  const bool issued = ctl_.deploy_update(
      healthy,
      [&](core::PathSink sink) { reroute_(healthy, sink); },
      core::LookupMode::PerHop, core::MultipathMode::None, kOverlayPriority,
      kOverlayPriority, SimTime::zero(),
      [this, alive = alive_](bool committed) {
        if (!*alive) return;
        if (committed) {
          backoff_ = kInitialBackoff;
          ++recoveries_;
          net_.sim().metrics().counter("recovery.recoveries").inc();
          close_incidents(net_.sim().now());
        } else {
          last_error_ = ctl_.last_error();
          schedule_retry();
        }
      });
  if (!issued) {
    last_error_ = ctl_.last_error();
    // One failed attempt arms one retry. An inline abort (an install NACK
    // on an ideal channel) has armed it through the callback already; a
    // deploy rejected before its transaction began has not.
    if (retries_ == retries) schedule_retry();
    return false;
  }
  return true;
}

void FailureRecovery::schedule_retry() {
  if (!started_) return;  // manual recover_now() without start(): no timers
  ++retries_;
  net_.sim().metrics().counter("recovery.retries").inc();
  if (auto* tr = net_.sim().recorder()) {
    tr->control_retry(net_.sim().now(), retries_);
  }
  retry_handle_ = net_.sim().schedule_in(
      backoff_,
      [this, alive = alive_]() {
        if (*alive) recover_now();
      },
      "recovery.retry");
  backoff_ = std::min(backoff_ + backoff_, kBackoffCap);
}

void FailureRecovery::close_incidents(SimTime end) {
  for (const auto& inc : open_incidents_) {
    mttr_us_.add((end - inc.began).us());
  }
  open_incidents_.clear();
}

SimTime FailureRecovery::degraded_time() const {
  SimTime t = degraded_ns_;
  if (failed_count_ > 0) t += net_.sim().now() - degraded_since_;
  return t;
}

double FailureRecovery::availability() const {
  const SimTime horizon = net_.sim().now() - started_at_;
  if (horizon <= SimTime::zero()) return 1.0;
  return 1.0 - static_cast<double>(degraded_time().ns()) /
                   static_cast<double>(horizon.ns());
}

}  // namespace oo::services
