#include "services/fault_plan.h"

#include <algorithm>
#include <stdexcept>

#include "core/quorum.h"

namespace oo::services {

namespace {

SimTime us_to_time(double us) {
  return SimTime::nanos(static_cast<std::int64_t>(us * 1e3));
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::PortFail:
      return "port_fail";
    case FaultKind::PortRepair:
      return "port_repair";
    case FaultKind::LinkFlap:
      return "link_flap";
    case FaultKind::Ber:
      return "ber";
    case FaultKind::ReconfigStall:
      return "reconfig_stall";
    case FaultKind::ControlDelay:
      return "control_delay";
    case FaultKind::ControlFail:
      return "control_fail";
    case FaultKind::ClockDriftRamp:
      return "clock_drift";
    case FaultKind::ClockStep:
      return "clock_step";
    case FaultKind::SyncBeaconLoss:
      return "beacon_loss";
    case FaultKind::SyncOutage:
      return "sync_outage";
    case FaultKind::SbMsgLoss:
      return "sb_msg_loss";
    case FaultKind::SbMsgDelay:
      return "sb_msg_delay";
    case FaultKind::SbMsgDup:
      return "sb_msg_dup";
    case FaultKind::TorInstallFail:
      return "tor_install_fail";
    case FaultKind::ControllerCrash:
      return "controller_crash";
    case FaultKind::LeaderKill:
      return "leader_kill";
    case FaultKind::ReplicaPartition:
      return "replica_partition";
    case FaultKind::LogDivergence:
      return "log_divergence";
    case FaultKind::BerRamp:
      return "ber_ramp";
    case FaultKind::GrayPortPair:
      return "gray_port_pair";
    case FaultKind::SilentInstallFail:
      return "silent_install_fail";
    case FaultKind::TelemetrySkew:
      return "telemetry_skew";
  }
  return "?";
}

FaultKind fault_kind_from_name(const std::string& name) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == fault_kind_name(kind)) return kind;
  }
  std::string valid;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    if (k > 0) valid += ", ";
    valid += fault_kind_name(static_cast<FaultKind>(k));
  }
  throw std::runtime_error("unknown fault kind: \"" + name +
                           "\" (valid kinds: " + valid + ")");
}

// Every enumerator must have a name and a round-trip; a new kind that grows
// the enum without bumping the count trips this at compile time.
static_assert(kNumFaultKinds ==
                  static_cast<int>(FaultKind::TelemetrySkew) + 1,
              "kNumFaultKinds out of sync with the FaultKind enum");

namespace {

[[noreturn]] void validation_error(std::size_t index, const std::string& what) {
  throw std::runtime_error("fault event " + std::to_string(index) + " (" +
                           what + ")");
}

void check_probability(std::size_t index, const char* kind, const char* field,
                       double v) {
  if (v < 0.0 || v > 1.0) {
    validation_error(index, std::string(kind) + ": " + field + " must be in "
                            "[0, 1], got " + std::to_string(v));
  }
}

}  // namespace

void validate_fault_event(const FaultEvent& ev, std::size_t index) {
  switch (ev.kind) {
    case FaultKind::Ber:
      check_probability(index, "ber", "ber", ev.ber);
      break;
    case FaultKind::SbMsgLoss:
      check_probability(index, "sb_msg_loss", "prob", ev.ber);
      break;
    case FaultKind::SbMsgDup:
      check_probability(index, "sb_msg_dup", "prob", ev.ber);
      break;
    case FaultKind::BerRamp:
      check_probability(index, "ber_ramp", "target ber", ev.ber);
      check_probability(index, "ber_ramp", "start ber (jitter)", ev.jitter);
      if (ev.jitter > ev.ber) {
        validation_error(index,
                         "ber_ramp: non-monotonic ramp — start ber " +
                             std::to_string(ev.jitter) + " exceeds target " +
                             std::to_string(ev.ber));
      }
      if (ev.duration <= SimTime::zero()) {
        validation_error(index, "ber_ramp: duration_us must be > 0 (the ramp "
                                "needs time to climb)");
      }
      if (ev.cycles < 1) {
        validation_error(index, "ber_ramp: cycles (ramp steps) must be >= 1, "
                                "got " + std::to_string(ev.cycles));
      }
      break;
    case FaultKind::GrayPortPair:
      check_probability(index, "gray_port_pair", "prob", ev.ber);
      if (ev.duration <= SimTime::zero()) {
        validation_error(index, "gray_port_pair: duration_us must be > 0 "
                                "(zero-duration gray windows inject nothing)");
      }
      break;
    case FaultKind::TelemetrySkew:
      if (ev.ppm == 0.0) {
        validation_error(index, "telemetry_skew: ppm must be nonzero (0 is "
                                "an honest reporter)");
      }
      if (ev.ppm <= -1e6) {
        validation_error(index, "telemetry_skew: ppm must be > -1e6 so the "
                                "reported factor 1 + ppm/1e6 stays positive");
      }
      break;
    default:
      break;
  }
}

FaultPlan& FaultPlan::add(FaultEvent ev) {
  // Eager validation: a malformed parameter fails at plan-build time with
  // the event's index, never as silent mid-run misbehavior.
  validate_fault_event(ev, events_.size());
  events_.push_back(ev);
  return *this;
}

FaultPlan& FaultPlan::fail_port(SimTime at, NodeId node, PortId port) {
  return add({.at = at, .kind = FaultKind::PortFail, .node = node,
              .port = port});
}

FaultPlan& FaultPlan::repair_port(SimTime at, NodeId node, PortId port) {
  return add({.at = at, .kind = FaultKind::PortRepair, .node = node,
              .port = port});
}

FaultPlan& FaultPlan::flap_port(SimTime at, NodeId node, PortId port,
                                SimTime down, SimTime period, int cycles,
                                double jitter) {
  return add({.at = at,
              .kind = FaultKind::LinkFlap,
              .node = node,
              .port = port,
              .duration = down,
              .period = period,
              .cycles = cycles,
              .jitter = jitter});
}

FaultPlan& FaultPlan::set_ber(SimTime at, NodeId node, PortId port,
                              double ber) {
  return add(
      {.at = at, .kind = FaultKind::Ber, .node = node, .port = port,
       .ber = ber});
}

FaultPlan& FaultPlan::stall_reconfig(SimTime at, SimTime extra) {
  return add({.at = at, .kind = FaultKind::ReconfigStall, .extra = extra});
}

FaultPlan& FaultPlan::fail_control(SimTime at, SimTime duration) {
  return add({.at = at, .kind = FaultKind::ControlFail,
              .duration = duration});
}

FaultPlan& FaultPlan::drift_clock(SimTime at, NodeId node, double ppm,
                                  SimTime duration) {
  return add({.at = at,
              .kind = FaultKind::ClockDriftRamp,
              .node = node,
              .duration = duration,
              .ppm = ppm});
}

FaultPlan& FaultPlan::lose_beacons(SimTime at, NodeId node,
                                   SimTime duration) {
  return add({.at = at, .kind = FaultKind::SyncBeaconLoss, .node = node,
              .duration = duration});
}

FaultPlan& FaultPlan::lose_sb_msgs(SimTime at, NodeId node, double prob,
                                   SimTime duration) {
  return add({.at = at, .kind = FaultKind::SbMsgLoss, .node = node,
              .duration = duration, .ber = prob});
}

FaultPlan& FaultPlan::dup_sb_msgs(SimTime at, NodeId node, double prob,
                                  SimTime duration) {
  return add({.at = at, .kind = FaultKind::SbMsgDup, .node = node,
              .duration = duration, .ber = prob});
}

FaultPlan& FaultPlan::crash_controller(SimTime at, SimTime duration) {
  return add({.at = at, .kind = FaultKind::ControllerCrash,
              .duration = duration});
}

FaultPlan& FaultPlan::kill_leader(SimTime at, SimTime restart_after) {
  return add({.at = at, .kind = FaultKind::LeaderKill,
              .duration = restart_after});
}

FaultPlan& FaultPlan::partition_replica(SimTime at, int replica,
                                        SimTime duration) {
  // The replica index rides in the node field (quorum events are not
  // ToR-scoped).
  return add({.at = at, .kind = FaultKind::ReplicaPartition,
              .node = static_cast<NodeId>(replica), .duration = duration});
}

FaultPlan& FaultPlan::diverge_log(SimTime at, int replica) {
  return add({.at = at, .kind = FaultKind::LogDivergence,
              .node = static_cast<NodeId>(replica)});
}

FaultPlan& FaultPlan::ramp_ber(SimTime at, NodeId node, PortId port,
                               double start_ber, double target_ber,
                               SimTime duration, int steps) {
  // The ramp's starting BER rides in the jitter field (both are unitless
  // fractions; BerRamp has no flap jitter) and the step count in cycles.
  return add({.at = at,
              .kind = FaultKind::BerRamp,
              .node = node,
              .port = port,
              .duration = duration,
              .cycles = steps,
              .jitter = start_ber,
              .ber = target_ber});
}

FaultPlan& FaultPlan::gray_pair(SimTime at, NodeId node, PortId port,
                                NodeId peer, double prob, SimTime duration) {
  return add({.at = at,
              .kind = FaultKind::GrayPortPair,
              .node = node,
              .port = port,
              .peer = peer,
              .duration = duration,
              .ber = prob});
}

FaultPlan& FaultPlan::silent_install(SimTime at, NodeId node,
                                     SimTime duration) {
  return add({.at = at, .kind = FaultKind::SilentInstallFail, .node = node,
              .duration = duration});
}

FaultPlan& FaultPlan::skew_telemetry(SimTime at, NodeId node, double ppm,
                                     SimTime duration) {
  return add({.at = at, .kind = FaultKind::TelemetrySkew, .node = node,
              .duration = duration, .ppm = ppm});
}

FaultPlan& FaultPlan::load_json(const std::string& text) {
  return load_events(json::parse(text));
}

std::vector<FaultEvent> parse_fault_events(const json::Value& plan) {
  // The full key vocabulary across every fault kind. Aliases: "replica" is
  // the quorum-fault spelling of "node", "down_us" the flap spelling of
  // "duration_us", "prob" the sb-message spelling of "ber", "delay_us" the
  // control-delay spelling of "extra_us".
  static constexpr const char* kKeys[] = {
      "kind",   "at_us",  "node",     "replica", "port",
      "duration_us", "down_us", "period_us", "cycles", "jitter",
      "ber",    "prob",   "ppm",      "extra_us", "delay_us", "peer"};
  std::vector<FaultEvent> out;
  for (const auto& e : plan.at("events").as_array()) {
    for (const auto& [key, value] : e.as_object()) {
      const bool known =
          std::any_of(std::begin(kKeys), std::end(kKeys),
                      [&key](const char* k) { return key == k; });
      if (!known) {
        std::string valid;
        for (const char* k : kKeys) {
          if (!valid.empty()) valid += ", ";
          valid += k;
        }
        throw std::runtime_error("fault event " +
                                 std::to_string(out.size()) +
                                 ": unknown key \"" + key +
                                 "\" (valid keys: " + valid + ")");
      }
    }
    FaultEvent ev;
    ev.kind = fault_kind_from_name(e.at("kind").as_string());
    ev.at = us_to_time(e.get_double("at_us", 0.0));
    ev.node = static_cast<NodeId>(
        e.get_int("node", e.get_int("replica", kInvalidNode)));
    ev.port = static_cast<PortId>(e.get_int("port", kInvalidPort));
    ev.peer = static_cast<NodeId>(e.get_int("peer", kInvalidNode));
    ev.duration = us_to_time(e.get_double(
        "duration_us", e.get_double("down_us", 0.0)));
    ev.period = us_to_time(e.get_double("period_us", 0.0));
    ev.cycles = static_cast<int>(e.get_int("cycles", 1));
    ev.jitter = e.get_double("jitter", 0.0);
    ev.ber = e.get_double("ber", e.get_double("prob", 0.0));
    ev.ppm = e.get_double("ppm", 0.0);
    ev.extra = us_to_time(e.get_double(
        "extra_us", e.get_double("delay_us", 0.0)));
    validate_fault_event(ev, out.size());
    out.push_back(ev);
  }
  return out;
}

json::Value fault_events_to_json(const std::vector<FaultEvent>& events) {
  json::Array arr;
  for (const FaultEvent& ev : events) {
    json::Object o;
    o["kind"] = std::string(fault_kind_name(ev.kind));
    o["at_us"] = static_cast<double>(ev.at.ns()) / 1e3;
    // Defaulted fields are omitted: parse_fault_events fills the same
    // defaults back in, so the round-trip stays exact and plans stay small.
    if (ev.node != kInvalidNode)
      o["node"] = static_cast<std::int64_t>(ev.node);
    if (ev.port != kInvalidPort)
      o["port"] = static_cast<std::int64_t>(ev.port);
    if (ev.peer != kInvalidNode)
      o["peer"] = static_cast<std::int64_t>(ev.peer);
    if (ev.duration != SimTime::zero())
      o["duration_us"] = static_cast<double>(ev.duration.ns()) / 1e3;
    if (ev.period != SimTime::zero())
      o["period_us"] = static_cast<double>(ev.period.ns()) / 1e3;
    if (ev.cycles != 1) o["cycles"] = static_cast<std::int64_t>(ev.cycles);
    if (ev.jitter != 0) o["jitter"] = ev.jitter;
    if (ev.ber != 0) o["ber"] = ev.ber;
    if (ev.ppm != 0) o["ppm"] = ev.ppm;
    if (ev.extra != SimTime::zero())
      o["extra_us"] = static_cast<double>(ev.extra.ns()) / 1e3;
    arr.emplace_back(std::move(o));
  }
  json::Object plan;
  plan["events"] = std::move(arr);
  return json::Value(std::move(plan));
}

FaultPlan& FaultPlan::load_events(const json::Value& plan) {
  for (FaultEvent& ev : parse_fault_events(plan)) add(ev);
  return *this;
}

void FaultPlan::count(FaultKind k, NodeId node, PortId port) {
  ++injected_[static_cast<std::size_t>(k)];
  net_.sim()
      .metrics()
      .counter("faults.injected", {{"kind", fault_kind_name(k)}})
      .inc();
  if (auto* tr = net_.sim().recorder()) {
    // A fired PortRepair undoes a fault; everything else injects one.
    tr->fault(net_.sim().now(), k != FaultKind::PortRepair, node, port,
              static_cast<std::int64_t>(k));
  }
}

void FaultPlan::trace_repair(FaultKind k, NodeId node, PortId port) {
  if (auto* tr = net_.sim().recorder()) {
    tr->fault(net_.sim().now(), false, node, port,
              static_cast<std::int64_t>(k));
  }
}

void FaultPlan::arm() {
  if (armed_) return;
  armed_ = true;
  auto& sim = net_.sim();
  for (const auto& ev : events_) {
    const SimTime at = std::max(ev.at, sim.now());
    sim.schedule_at(at, [this, ev]() { fire(ev); }, "fault");
  }
}

void FaultPlan::fire(const FaultEvent& ev) {
  auto& sim = net_.sim();
  switch (ev.kind) {
    case FaultKind::PortFail:
      count(ev.kind, ev.node, ev.port);
      net_.optical().set_port_failed(ev.node, ev.port, true);
      break;
    case FaultKind::PortRepair:
      count(ev.kind, ev.node, ev.port);
      net_.optical().set_port_failed(ev.node, ev.port, false);
      break;
    case FaultKind::LinkFlap:
      flap_cycle(ev, ev.cycles);
      break;
    case FaultKind::Ber:
      count(ev.kind, ev.node, ev.port);
      net_.optical().set_port_ber(ev.node, ev.port, ev.ber);
      break;
    case FaultKind::ReconfigStall:
      // Only counts when a retargeting was actually in flight to stall.
      if (net_.optical().stall_reconfig(ev.extra)) count(ev.kind);
      break;
    case FaultKind::ControlDelay:
      if (ctl_ == nullptr) break;
      count(ev.kind);
      ctl_->set_deploy_delay(ev.extra);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this]() {
              ctl_->set_deploy_delay(SimTime::zero());
              trace_repair(FaultKind::ControlDelay);
            },
            "fault");
      }
      break;
    case FaultKind::ControlFail:
      if (ctl_ == nullptr) break;
      count(ev.kind);
      ctl_->set_deploy_fail(true);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this]() {
              ctl_->set_deploy_fail(false);
              trace_repair(FaultKind::ControlFail);
            },
            "fault");
      }
      break;
    case FaultKind::ClockDriftRamp:
      count(ev.kind, ev.node);
      net_.clock().set_drift_ppm(ev.node, ev.ppm, sim.now());
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              // Drift stops but the accumulated offset error stays — only a
              // resync beacon re-disciplines the clock.
              net_.clock().set_drift_ppm(node, 0.0, net_.sim().now());
              trace_repair(FaultKind::ClockDriftRamp, node);
            },
            "fault");
      }
      break;
    case FaultKind::ClockStep:
      count(ev.kind, ev.node);
      net_.clock().step(ev.node, ev.extra, sim.now());
      break;
    case FaultKind::SyncBeaconLoss:
      count(ev.kind, ev.node);
      net_.clock().block_beacons(ev.node, ev.duration > SimTime::zero()
                                              ? sim.now() + ev.duration
                                              : SimTime::max());
      break;
    case FaultKind::SyncOutage:
      count(ev.kind);
      net_.clock().set_outage(ev.duration > SimTime::zero()
                                  ? sim.now() + ev.duration
                                  : SimTime::max());
      break;
    case FaultKind::SbMsgLoss:
      if (ctl_ == nullptr) break;
      count(ev.kind, ev.node);
      ctl_->southbound().set_node_loss(ev.node, ev.ber);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              ctl_->southbound().set_node_loss(node, 0.0);
              trace_repair(FaultKind::SbMsgLoss, node);
            },
            "fault");
      }
      break;
    case FaultKind::SbMsgDelay:
      if (ctl_ == nullptr) break;
      count(ev.kind, ev.node);
      ctl_->southbound().set_node_delay(ev.node, ev.extra);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              ctl_->southbound().set_node_delay(node, SimTime::zero());
              trace_repair(FaultKind::SbMsgDelay, node);
            },
            "fault");
      }
      break;
    case FaultKind::SbMsgDup:
      if (ctl_ == nullptr) break;
      count(ev.kind, ev.node);
      ctl_->southbound().set_node_dup(ev.node, ev.ber);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              ctl_->southbound().set_node_dup(node, 0.0);
              trace_repair(FaultKind::SbMsgDup, node);
            },
            "fault");
      }
      break;
    case FaultKind::TorInstallFail:
      if (ctl_ == nullptr || ev.node == kInvalidNode) break;
      count(ev.kind, ev.node);
      ctl_->set_install_fail(ev.node, true);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              ctl_->set_install_fail(node, false);
              trace_repair(FaultKind::TorInstallFail, node);
            },
            "fault");
      }
      break;
    case FaultKind::ControllerCrash:
      if (ctl_ == nullptr) break;
      count(ev.kind);
      ctl_->crash();
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this]() {
              ctl_->restart();
              trace_repair(FaultKind::ControllerCrash);
            },
            "fault");
      }
      break;
    case FaultKind::LeaderKill: {
      if (ctl_ == nullptr || ctl_->quorum() == nullptr) break;
      const int victim = ctl_->quorum()->kill_leader();
      if (victim < 0) break;  // no live leader at fire time
      count(ev.kind, victim);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, victim]() {
              ctl_->quorum()->revive_replica(victim);
              trace_repair(FaultKind::LeaderKill, victim);
            },
            "fault");
      }
      break;
    }
    case FaultKind::ReplicaPartition:
      if (ctl_ == nullptr || ctl_->quorum() == nullptr ||
          ev.node == kInvalidNode) {
        break;
      }
      count(ev.kind, ev.node);
      ctl_->quorum()->set_partitioned(ev.node, true);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, replica = ev.node]() {
              ctl_->quorum()->set_partitioned(replica, false);
              trace_repair(FaultKind::ReplicaPartition, replica);
            },
            "fault");
      }
      break;
    case FaultKind::LogDivergence:
      if (ctl_ == nullptr || ctl_->quorum() == nullptr ||
          ev.node == kInvalidNode) {
        break;
      }
      count(ev.kind, ev.node);
      ctl_->quorum()->diverge_log(ev.node);
      break;
    case FaultKind::BerRamp: {
      // Deterministic aging curve: start at jitter (= start BER), climb to
      // ber in `cycles` equal steps over `duration`. No randomness — the
      // curve is a pure function of the event, so replays are exact. The
      // ramp is sticky: aging does not heal itself (only a later Ber event
      // clears it).
      count(ev.kind, ev.node, ev.port);
      net_.optical().set_port_ber(ev.node, ev.port, ev.jitter);
      const int steps = ev.cycles;
      for (int i = 1; i <= steps; ++i) {
        const SimTime when = SimTime::nanos(ev.duration.ns() * i / steps);
        const double b =
            ev.jitter + (ev.ber - ev.jitter) *
                            (static_cast<double>(i) / static_cast<double>(steps));
        sim.schedule_in(
            when,
            [this, node = ev.node, port = ev.port, b]() {
              net_.optical().set_port_ber(node, port, b);
            },
            "fault");
      }
      break;
    }
    case FaultKind::GrayPortPair:
      count(ev.kind, ev.node, ev.port);
      net_.optical().set_gray_pair(ev.node, ev.port, ev.peer, ev.ber);
      // duration > 0 is enforced at plan load; the window always closes.
      sim.schedule_in(
          ev.duration,
          [this, node = ev.node, port = ev.port, peer = ev.peer]() {
            net_.optical().set_gray_pair(node, port, peer, 0.0);
            trace_repair(FaultKind::GrayPortPair, node, port);
          },
          "fault");
      break;
    case FaultKind::SilentInstallFail:
      if (ctl_ == nullptr || ev.node == kInvalidNode) break;
      count(ev.kind, ev.node);
      ctl_->set_silent_install_fail(ev.node, true);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              ctl_->set_silent_install_fail(node, false);
              trace_repair(FaultKind::SilentInstallFail, node);
            },
            "fault");
      }
      break;
    case FaultKind::TelemetrySkew:
      if (ev.node == kInvalidNode) break;
      count(ev.kind, ev.node);
      net_.set_telemetry_skew(ev.node, ev.ppm);
      if (ev.duration > SimTime::zero()) {
        sim.schedule_in(
            ev.duration,
            [this, node = ev.node]() {
              net_.set_telemetry_skew(node, 0.0);
              trace_repair(FaultKind::TelemetrySkew, node);
            },
            "fault");
      }
      break;
  }
}

void FaultPlan::flap_cycle(const FaultEvent& ev, int remaining) {
  if (remaining <= 0) return;
  count(FaultKind::LinkFlap, ev.node, ev.port);
  auto& sim = net_.sim();
  net_.optical().set_port_failed(ev.node, ev.port, true);
  sim.schedule_in(
      ev.duration,
      [this, ev]() {
        net_.optical().set_port_failed(ev.node, ev.port, false);
        trace_repair(FaultKind::LinkFlap, ev.node, ev.port);
      },
      "fault");
  if (remaining <= 1) return;
  SimTime next = ev.period;
  if (ev.jitter > 0.0) {
    // Seeded jitter from the plan's own stream: identical seeds replay the
    // exact same flap timeline.
    const double f = 1.0 + ev.jitter * (2.0 * rng_.uniform01() - 1.0);
    next = SimTime::nanos(
        static_cast<std::int64_t>(static_cast<double>(next.ns()) * f));
  }
  if (next <= ev.duration) next = ev.duration + SimTime::nanos(1);
  sim.schedule_in(
      next, [this, ev, remaining]() { flap_cycle(ev, remaining - 1); },
      "fault");
}

std::int64_t FaultPlan::injected_total() const {
  std::int64_t total = 0;
  for (const auto n : injected_) total += n;
  return total;
}

std::string FaultPlan::summary() const {
  std::string out;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    if (injected_[static_cast<std::size_t>(k)] == 0) continue;
    if (!out.empty()) out += ' ';
    out += fault_kind_name(static_cast<FaultKind>(k));
    out += '=';
    out += std::to_string(injected_[static_cast<std::size_t>(k)]);
  }
  return out.empty() ? "none" : out;
}

}  // namespace oo::services
