#include "runner/experiments.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "chaos/fuzz.h"
#include "chaos/invariants.h"
#include "chaos/shrink.h"
#include "core/quorum.h"
#include "transport/fluid.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "services/fault_plan.h"
#include "services/health_scanner.h"
#include "services/hybrid_steering.h"
#include "services/sync_watchdog.h"
#include "traffic/engine.h"
#include "workload/allreduce.h"
#include "workload/kv.h"

namespace oo::runner {

namespace {

using namespace oo::literals;

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::map<std::string, RunFn>& registry() {
  static std::map<std::string, RunFn> r;
  return r;
}

// Shared fault-injection hook (see experiments.h): throws when the spec
// listed this run in "fail_runs", or in "flaky_runs" on its first attempt.
void maybe_inject_failure(const RunContext& ctx) {
  const auto listed = [&](const char* key) {
    const auto it = ctx.spec.params.find(key);
    if (it == ctx.spec.params.end()) return false;
    for (const json::Value& v : it->second.as_array()) {
      if (static_cast<int>(v.as_int()) == ctx.spec.index) return true;
    }
    return false;
  };
  if (listed("fail_runs")) {
    throw std::runtime_error("injected failure (fail_runs)");
  }
  if (ctx.attempt == 1 && listed("flaky_runs")) {
    throw std::runtime_error("injected first-attempt failure (flaky_runs)");
  }
}

json::Object percentile_row(const PercentileSampler& s) {
  json::Object o;
  o["n"] = static_cast<std::int64_t>(s.count());
  o["p50_us"] = s.count() ? s.percentile(50) : 0.0;
  o["p90_us"] = s.count() ? s.percentile(90) : 0.0;
  o["p99_us"] = s.count() ? s.percentile(99) : 0.0;
  o["max_us"] = s.count() ? s.max() : 0.0;
  return o;
}

// --- fct: Fig. 8(a)-style mice FCT on one architecture -------------------
json::Object run_fct(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "clos"), p);

  std::vector<HostId> clients;
  for (HostId h = 1; h < inst.net->num_hosts(); ++h) clients.push_back(h);
  workload::KvWorkload kv(
      *inst.net, 0, clients,
      SimTime::nanos(static_cast<std::int64_t>(
          ctx.param_double("kv_interval_ms", 2.0) * 1e6)));
  kv.start();
  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 250)));
  kv.stop();

  json::Object o = percentile_row(kv.fct_us());
  const auto t = inst.net->totals();
  o["ops"] = kv.ops_completed();
  o["delivered"] = t.delivered;
  o["fabric_drops"] = t.fabric_drops;
  ctx.sim_events = inst.net->sim().events_executed();
  return o;
}

// --- allreduce: Fig. 8(b)-style ring allreduce completion ----------------
json::Object run_allreduce(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "clos"), p);

  std::vector<HostId> ring;
  for (HostId h = 0; h < inst.net->num_hosts(); ++h) ring.push_back(h);
  SimTime total = SimTime::zero();
  auto tcp = workload::RingAllreduce::default_tcp();
  tcp.dupack_threshold = static_cast<int>(
      ctx.param_int("dupack_threshold", tcp.dupack_threshold));
  workload::RingAllreduce ar(
      *inst.net, ring, ctx.param_int("bytes", 4 << 20),
      [&](SimTime t) { total = t; }, tcp);
  ar.start();
  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 3000)));

  json::Object o;
  o["done"] = total != SimTime::zero();
  o["total_ms"] = total == SimTime::zero() ? -1.0 : total.ms();
  o["bytes"] = ctx.param_int("bytes", 4 << 20);
  ctx.sim_events = inst.net->sim().events_executed();
  return o;
}

// --- sync_resilience: clock-drift ramp vs. the sync watchdog -------------
json::Object run_sync_resilience(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "rotornet-direct-hybrid"),
                        p);
  auto* net = inst.net.get();

  const double ppm = ctx.param_double("ppm", 0.0);
  const bool watchdog_on = ctx.param_bool("watchdog", true);
  const NodeId drift_node =
      static_cast<NodeId>(ctx.param_int("drift_node", 2));

  services::SyncWatchdog watchdog(*net);
  std::int64_t wrong_at_quarantine = -1;
  if (watchdog_on) {
    watchdog.ladder().set_steering_hook(
        [net, &wrong_at_quarantine](NodeId, bool quarantined) {
          if (quarantined && wrong_at_quarantine < 0) {
            wrong_at_quarantine = net->optical().wrong_slice();
          }
        });
    watchdog.start();
  }

  net->sim().schedule_every(5_us, 10_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 500 + src;
      pkt.dst_host = (src + 3) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });

  // Drift + beacon loss share one window: the clock compounds its error
  // unchecked, then beacons resume and re-discipline it.
  services::FaultPlan plan(
      *net,
      static_cast<std::uint64_t>(ctx.param_int("fault_seed", 2024)));
  if (ppm > 0) {
    const SimTime window =
        SimTime::millis(ctx.param_int("fault_window_ms", 6));
    plan.drift_clock(1_ms, drift_node, ppm, window);
    plan.lose_beacons(1_ms, drift_node, window);
  }
  plan.arm();

  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 12)));

  json::Object o;
  o["wrong_slice"] = net->optical().wrong_slice();
  o["wrong_at_quarantine"] = wrong_at_quarantine;
  o["delivered"] = net->optical().delivered();
  o["desyncs"] = watchdog_on ? watchdog.desyncs_detected() : 0;
  o["widenings"] = watchdog_on ? watchdog.guard_widenings() : 0;
  o["quarantines"] = watchdog_on ? watchdog.quarantines() : 0;
  o["readmissions"] = watchdog_on ? watchdog.readmissions() : 0;
  o["detect_us"] = watchdog_on && watchdog.time_to_detect_us().count() > 0
                       ? watchdog.time_to_detect_us().percentile(50)
                       : 0.0;
  o["quarantine_us"] = watchdog_on && watchdog.quarantine_us().count() > 0
                           ? watchdog.quarantine_us().percentile(50)
                           : 0.0;
  ctx.sim_events = net->sim().events_executed();
  return o;
}

// --- gray_detection: one scripted gray fault vs. the health scanner -----
// Injects a single gray failure (ber_ramp | gray_pair | silent_install |
// telemetry_skew | none) against a known (node, port) and reports whether
// the scanner noticed, what it blamed, and how long each rung took.
// "none" is the false-positive control: any Suspect entry on a clean run
// is a finding. Localization is judged here — cause family plus blamed
// component against the injected one — so campaign grids aggregate a
// plain accuracy column without re-deriving the mapping downstream.
const char* cause_name(services::HealthScanner::Cause c) {
  using Cause = services::HealthScanner::Cause;
  switch (c) {
    case Cause::None: return "none";
    case Cause::LinkLoss: return "link_loss";
    case Cause::PortDegrade: return "port_degrade";
    case Cause::TelemetrySkew: return "telemetry_skew";
    case Cause::SilentInstall: return "silent_install";
  }
  return "?";
}

json::Object run_gray_detection(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst =
      make_arch(ctx.param_string("arch", "rotornet-direct-hybrid"), p);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  using services::HealthScanner;
  HealthScanner scanner(
      *net, ctx.param_double("suspect_score",
                             HealthScanner::kDefaultSuspectScore));
  scanner.set_controller(ctl);
  if (inst.steering) {
    auto steering = inst.steering;
    scanner.ladder().set_steering_hook([steering](NodeId n, bool degraded) {
      steering->set_node_degraded(n, degraded);
    });
  }

  const NodeId target = static_cast<NodeId>(ctx.param_int("target", 2));
  SimTime suspect_at = SimTime::zero();
  SimTime quarantine_at = SimTime::zero();
  // Blame as localized when remediation lands — a healed fault readmits the
  // node and resets its end-of-run blame, which is not what grids score.
  // First-suspect blame is provisional (only the strongest circuit has
  // matured); the quarantine-time blame is the ladder's actual verdict.
  HealthScanner::Blame first_blame;
  HealthScanner::Blame final_blame;
  std::int64_t off_target_suspects = 0;
  using NodeHealth = HealthScanner::NodeHealth;
  scanner.ladder().set_transition_hook([&, net, target](NodeId n, int,
                                                        int to) {
    if (to == static_cast<int>(NodeHealth::Suspect)) {
      if (n == target) {
        if (suspect_at == SimTime::zero()) {
          suspect_at = net->sim().now();
          first_blame = scanner.blame(n);
        }
      } else {
        ++off_target_suspects;
      }
    }
    if (n == target && to == static_cast<int>(NodeHealth::Quarantined)) {
      if (quarantine_at == SimTime::zero()) quarantine_at = net->sim().now();
      // Keep the last quarantine's verdict: a sticky fault oscillates
      // through quarantine/readmit cycles, and each re-detection classifies
      // from richer evidence than the first ladder climb had.
      final_blame = scanner.blame(n);
    }
  });
  scanner.start();

  // All-to-all background traffic every 10 us, heavy enough that every
  // circuit clears the audit's min-bytes evidence bar each slice —
  // single-destination patterns would make a dying port indistinguishable
  // from one bad pair.
  net->sim().schedule_every(5_us, 10_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      for (HostId dst = 0; dst < net->num_hosts(); ++dst) {
        if (dst == src) continue;
        core::Packet pkt;
        pkt.type = core::PacketType::Data;
        pkt.flow = 900 + src;
        pkt.dst_host = dst;
        pkt.size_bytes = 1500;
        net->host(src).send(std::move(pkt));
      }
    }
  });
  // Identity redeploys every 2 ms give the claim-vs-behavior check a live
  // ack trail to audit (a silent installer is only caught while installs
  // flow).
  net->sim().schedule_every(
      SimTime::millis(1), SimTime::millis(2),
      [net, ctl]() {
        (void)ctl->deploy_update(net->schedule(),
                                 routing::direct_to(net->schedule()),
                                 core::LookupMode::PerHop,
                                 core::MultipathMode::None, 1, 1,
                                 SimTime::zero(), nullptr);
      });

  const std::string fault = ctx.param_string("fault", "gray_pair");
  const PortId port = static_cast<PortId>(ctx.param_int("port", 0));
  const double severity = ctx.param_double("severity", 0.5);
  const SimTime at = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("fault_at_us", 2000.0) * 1e3));
  const SimTime window = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("fault_window_us", 20000.0) * 1e3));
  const std::int64_t peer_param = ctx.param_int("peer", -1);
  const NodeId peer = peer_param >= 0 ? static_cast<NodeId>(peer_param)
                                      : kInvalidNode;

  services::FaultPlan plan(
      *net, static_cast<std::uint64_t>(ctx.param_int("fault_seed", 2024)),
      ctl);
  using Cause = services::HealthScanner::Cause;
  Cause expected = Cause::None;
  if (fault == "ber_ramp") {
    // Aging transceiver: ~severity-scaled packet-corruption odds at full
    // ramp (1500 B frames corrupt w.p. ~= 12000 * ber).
    plan.ramp_ber(at, target, port, 1e-9, severity * 2e-5, window);
    expected = Cause::PortDegrade;
  } else if (fault == "gray_pair") {
    plan.gray_pair(at, target, port, peer, severity, window);
    expected = peer != kInvalidNode ? Cause::LinkLoss : Cause::PortDegrade;
  } else if (fault == "silent_install") {
    plan.silent_install(at, target, window);
    expected = Cause::SilentInstall;
  } else if (fault == "telemetry_skew") {
    const double ppm = std::min(500000.0, std::max(50000.0,
                                                   severity * 200000.0));
    plan.skew_telemetry(at, target, ppm, window);
    expected = Cause::TelemetrySkew;
  } else if (fault != "none") {
    throw std::runtime_error("gray_detection: unknown fault '" + fault +
                             "' (ber_ramp | gray_pair | silent_install | "
                             "telemetry_skew | none)");
  }
  plan.arm();

  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 30)));

  // Score the quarantine-time verdict; fall back to the first-suspect blame
  // when the run ended before the ladder reached quarantine.
  const HealthScanner::Blame& why =
      quarantine_at != SimTime::zero() ? final_blame : first_blame;
  bool localized;
  if (fault == "none") {
    localized = scanner.suspects() == 0;
  } else {
    localized = why.cause == expected;
    if (expected == Cause::LinkLoss) {
      localized = localized && why.port == port && why.peer == peer;
    } else if (expected == Cause::PortDegrade) {
      localized = localized && why.port == port;
    }
  }

  json::Object o;
  o["fault"] = fault;
  o["severity"] = severity;
  o["detected"] = suspect_at != SimTime::zero();
  o["suspect_us"] =
      suspect_at != SimTime::zero() ? (suspect_at - at).us() : -1.0;
  o["quarantine_us"] =
      quarantine_at != SimTime::zero() ? (quarantine_at - at).us() : -1.0;
  o["state"] = static_cast<std::int64_t>(scanner.state(target));
  o["blame_cause"] = std::string(cause_name(why.cause));
  o["blame_port"] = static_cast<std::int64_t>(
      why.port == kInvalidPort ? -1 : why.port);
  o["blame_peer"] = static_cast<std::int64_t>(
      why.peer == kInvalidNode ? -1 : why.peer);
  o["localized"] = localized;
  o["false_positives"] = off_target_suspects;
  o["audits"] = scanner.audits();
  o["suspects"] = scanner.suspects();
  o["degrades"] = scanner.degrades();
  o["quarantines"] = scanner.quarantines();
  o["readmissions"] = scanner.readmissions();
  o["probes_lost"] = scanner.probes_lost();
  const auto t = net->totals();
  o["delivered"] = t.delivered;
  o["fabric_drops"] = t.fabric_drops;
  ctx.sim_events = net->sim().events_executed();
  return o;
}

// --- control_chaos: southbound loss/dup + controller crash vs. the
// transactional deploy path. fencing=true must keep mixed_epoch_slices at
// 0; fencing=false is the legacy-scatter baseline that exposes them. -----
json::Object run_control_chaos(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "rotornet-direct"), p);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  const bool fencing = ctx.param_bool("fencing", true);
  ctl->set_fencing(fencing);
  core::SouthboundConfig sb;
  sb.latency = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("sb_latency_us", 20.0) * 1e3));
  ctl->southbound().configure(sb);

  services::FailureRecovery recovery(
      *net, *ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*scrub=*/1_ms);
  recovery.start();

  net->sim().schedule_every(50_us, 100_us, [net]() {
    for (HostId src : {HostId{0}, HostId{1}, HostId{2}}) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 100 + src;
      pkt.dst_host = (src + 4) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });

  const double loss = ctx.param_double("sb_loss_prob", 0.7);
  const NodeId lossy = static_cast<NodeId>(ctx.param_int("lossy_node", 3));
  services::FaultPlan plan(
      *net,
      static_cast<std::uint64_t>(ctx.param_int("fault_seed", 2024)), ctl);
  // Port churn forces recovery redeploys; they cross the southbound while
  // it is lossy/dup-prone and once while the controller is down entirely.
  plan.lose_sb_msgs(5_ms, lossy, loss, /*duration=*/20_ms);
  plan.fail_port(8_ms, 0, 0);
  plan.repair_port(22_ms, 0, 0);
  plan.dup_sb_msgs(30_ms, kInvalidNode, 0.5, /*duration=*/12_ms);
  plan.fail_port(32_ms, 1, 0);
  plan.repair_port(38_ms, 1, 0);
  plan.crash_controller(45_ms, /*duration=*/3_ms);
  plan.fail_port(46_ms, 2, 0);
  plan.repair_port(58_ms, 2, 0);
  plan.arm();

  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 80)));

  json::Object o;
  o["fencing"] = fencing;
  o["mixed_epoch_slices"] = net->mixed_epoch_slices();
  o["epoch_mixed_at_end"] = net->epoch_mixed();
  o["committed_epoch"] =
      static_cast<std::int64_t>(ctl->committed_epoch());
  o["txn_commits"] = ctl->txn_commits();
  o["txn_aborts"] = ctl->txn_aborts();
  o["txn_rollbacks"] = ctl->txn_rollbacks();
  o["fenced_stale_installs"] = ctl->fenced_stale_installs();
  o["resyncs"] = ctl->resyncs();
  o["deploys_rejected"] = ctl->deploys_rejected();
  o["sb_sent"] = ctl->southbound().msgs_sent();
  o["sb_lost"] = ctl->southbound().msgs_lost();
  o["sb_duped"] = ctl->southbound().msgs_duped();
  o["recoveries"] = recovery.recoveries();
  o["retries"] = recovery.retries();
  o["delivered"] = net->optical().delivered();
  ctx.sim_events = net->sim().events_executed();
  return o;
}

// --- quorum_chaos: deploy latency/availability vs controller replication -
// Sweeps controller_replicas (1 = the plain single controller, no quorum
// constructed) x southbound loss, drives periodic deploy_update
// transactions through the control plane while a scripted leader kill,
// replica partition, and log divergence play out, and reports per-deploy
// commit latency percentiles plus the election/failover/replication
// counters. The quorum fault events are no-ops for replicas=1, so every
// grid cell runs the identical script.
json::Object run_quorum_chaos(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "rotornet-direct"), p);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  core::SouthboundConfig sb;
  sb.latency = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("sb_latency_us", 20.0) * 1e3));
  sb.loss_prob = ctx.param_double("sb_loss_prob", 0.0);
  ctl->southbound().configure(sb);

  const int replicas =
      static_cast<int>(ctx.param_int("controller_replicas", 1));
  std::unique_ptr<core::ControllerQuorum> quorum;
  if (replicas > 1) {
    core::QuorumConfig qc;
    qc.replicas = replicas;
    qc.election_timeout = SimTime::nanos(static_cast<std::int64_t>(
        ctx.param_double("election_timeout_us", 200.0) * 1e3));
    qc.heartbeat = SimTime::nanos(static_cast<std::int64_t>(
        ctx.param_double("heartbeat_us", 50.0) * 1e3));
    quorum = std::make_unique<core::ControllerQuorum>(*net, *ctl, qc);
    quorum->start();
  }

  services::FailureRecovery recovery(
      *net, *ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*scrub=*/1_ms);
  recovery.start();

  net->sim().schedule_every(50_us, 100_us, [net]() {
    for (HostId src : {HostId{0}, HostId{1}, HostId{2}}) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 100 + src;
      pkt.dst_host = (src + 4) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });

  services::FaultPlan plan(
      *net,
      static_cast<std::uint64_t>(ctx.param_int("fault_seed", 2024)), ctl);
  plan.fail_port(8_ms, 0, 0);
  plan.repair_port(16_ms, 0, 0);
  plan.diverge_log(12_ms, replicas > 2 ? 2 : 1);
  plan.kill_leader(20_ms, /*restart_after=*/2_ms);
  plan.partition_replica(30_ms, 1, /*duration=*/3_ms);
  plan.arm();

  // Periodic identity redeploys: each is a full two-phase (and, with a
  // quorum, majority-replicated) transaction whose issue->outcome latency
  // we sample. Deploys racing the leader kill measure failover cost.
  PercentileSampler deploy_us;
  std::int64_t issued = 0, refused = 0, committed = 0, aborted = 0;
  net->sim().schedule_every(4_ms, 2_ms, [&, net, ctl]() {
    const SimTime t0 = net->sim().now();
    ++issued;
    const bool accepted = ctl->deploy_update(
        net->schedule(), routing::direct_to(net->schedule()),
        core::LookupMode::PerHop, core::MultipathMode::None, 1, 1,
        SimTime::zero(),
        // Capture `net` by value: the controller holds this callback past
        // the enclosing closure's lifetime, so a `[&]` capture of the outer
        // lambda's copy would dangle.
        [&deploy_us, &committed, &aborted, net, t0](bool ok) {
          deploy_us.add((net->sim().now() - t0).us());
          if (ok) {
            ++committed;
          } else {
            ++aborted;
          }
        });
    if (!accepted) ++refused;
  });

  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 60)));

  json::Object o;
  o["controller_replicas"] = static_cast<std::int64_t>(replicas);
  o["deploy"] = percentile_row(deploy_us);
  o["deploys_issued"] = issued;
  o["deploys_refused"] = refused;
  o["deploys_committed"] = committed;
  o["deploys_aborted"] = aborted;
  o["mixed_epoch_slices"] = net->mixed_epoch_slices();
  o["committed_epoch"] =
      static_cast<std::int64_t>(ctl->committed_epoch());
  o["txn_commits"] = ctl->txn_commits();
  o["txn_aborts"] = ctl->txn_aborts();
  o["txn_rollbacks"] = ctl->txn_rollbacks();
  o["resyncs"] = ctl->resyncs();
  o["stale_term_rejections"] = ctl->stale_term_rejections();
  o["elections"] = quorum ? quorum->elections() : 0;
  o["failovers"] = quorum ? quorum->failovers() : 0;
  o["step_downs"] = quorum ? quorum->step_downs() : 0;
  o["log_repairs"] = quorum ? quorum->log_repairs() : 0;
  o["term"] =
      static_cast<std::int64_t>(quorum ? quorum->term() : 0);
  o["log_length"] = quorum ? quorum->log_length() : 0;
  o["replica_msgs_sent"] = ctl->southbound().replica_msgs_sent();
  o["replica_msgs_lost"] = ctl->southbound().replica_msgs_lost();
  o["sb_sent"] = ctl->southbound().msgs_sent();
  o["sb_lost"] = ctl->southbound().msgs_lost();
  o["recoveries"] = recovery.recoveries();
  o["retries"] = recovery.retries();
  ctx.sim_events = net->sim().events_executed();
  return o;
}

// --- chaos_fuzz: seeded random fault plans under the invariant monitor.
// Each run fuzzes a FaultPlan from its seed, drives it against a live
// fabric (recovery + watchdog + optional quorum + background traffic +
// a couple of fluid elephants), and asks the monitor whether every
// invariant survived. On violation the plan is delta-debugged down to a
// minimal reproducer, embedded in the result row. "plant_bug" wires a
// deliberately broken invariant (trips when a clock_step and a port_fail
// are armed in the same plan) so the fuzz -> catch -> shrink -> replay
// loop itself stays tested. ----------------------------------------------

// One full deterministic scenario run; the shrinker re-enters this for
// every probe, so everything inside must derive from (ctx, events) alone.
std::int64_t chaos_run_once(RunContext& ctx,
                            const std::vector<services::FaultEvent>& events,
                            bool plant_bug, std::string* report,
                            json::Object* counters) {
  arch::Params p = arch_params_from(ctx);
  auto inst =
      make_arch(ctx.param_string("arch", "rotornet-direct-hybrid"), p);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  chaos::InvariantMonitor monitor(*net);
  monitor.attach_controller(ctl);
  if (net->sharded()) monitor.attach_parallel(net->sharded_engine());

  const int replicas =
      static_cast<int>(ctx.param_int("controller_replicas", 1));
  std::unique_ptr<core::ControllerQuorum> quorum;
  if (replicas > 1) {
    core::QuorumConfig qc;
    qc.replicas = replicas;
    quorum = std::make_unique<core::ControllerQuorum>(*net, *ctl, qc);
    quorum->start();
    monitor.attach_quorum(quorum.get());
  }

  services::FailureRecovery recovery(
      *net, *ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*scrub=*/1_ms);
  recovery.start();

  services::SyncWatchdog watchdog(*net);
  monitor.attach_ladder(&watchdog.ladder());
  watchdog.start();

  // The health scanner rides every fuzz run: the gray fault kinds exercise
  // its evidence ladder, and the monitor checks each transition's legality.
  services::HealthScanner scanner(*net);
  scanner.set_controller(ctl);
  monitor.attach_ladder(&scanner.ladder());
  if (inst.steering) {
    auto steering = inst.steering;
    scanner.ladder().set_steering_hook([steering](NodeId n, bool degraded) {
      steering->set_node_degraded(n, degraded);
    });
  }
  scanner.start();

  transport::FluidSolver fluid(*net);
  monitor.attach_fluid(&fluid);

  monitor.start(SimTime::micros(50));

  if (plant_bug) {
    bool has_step = false, has_fail = false;
    for (const auto& e : events) {
      if (e.kind == services::FaultKind::ClockStep) has_step = true;
      if (e.kind == services::FaultKind::PortFail) has_fail = true;
    }
    if (has_step && has_fail) {
      monitor.add_check("planted_bug", [] {
        return std::string(
            "planted: clock_step and port_fail armed in the same plan");
      });
    }
  }

  services::FaultPlan plan(*net, ctx.seed_for("chaos.faults"), ctl);
  for (const auto& e : events) plan.add(e);
  plan.arm();

  // Background packet traffic, cut off early enough that every in-flight
  // packet lands (or parks somewhere the census sees) before the drain
  // check — the conservation ledger is only exact at quiescence.
  const SimTime duration = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("duration_us", 3000.0) * 1e3));
  const SimTime cutoff = SimTime::nanos(duration.ns() * 2 / 3);
  for (SimTime t = 20_us; t < cutoff; t = t + 100_us) {
    net->sim().schedule_at(t, [net]() {
      for (HostId src : {HostId{0}, HostId{1}, HostId{2}}) {
        core::Packet pkt;
        pkt.type = core::PacketType::Data;
        pkt.flow = 700 + src;
        pkt.dst_host = (src + 5) % net->num_hosts();
        pkt.size_bytes = 1500;
        net->host(src % net->num_hosts()).send(std::move(pkt));
      }
    });
  }
  // Two fluid elephants keep the solver's conservation check non-trivial.
  net->sim().schedule_at(50_us, [net, &fluid]() {
    fluid.launch(0, net->num_hosts() / 2, 2'000'000, nullptr);
    fluid.launch(1, net->num_hosts() - 1, 1'000'000, nullptr);
  });
  // Scanner probes stop with the traffic: a probe datagram still in flight
  // at the horizon would read as a leak to the drain-time ledger.
  net->sim().schedule_at(cutoff, [&scanner]() { scanner.stop(); });

  inst.run_for(duration);
  monitor.check_at_drain();

  if (report != nullptr) *report = monitor.report();
  if (counters != nullptr) {
    const auto t = net->totals();
    (*counters)["delivered"] = t.delivered;
    (*counters)["fabric_drops"] = t.fabric_drops;
    (*counters)["congestion_drops"] = t.congestion_drops;
    (*counters)["electrical_drops"] = t.electrical_drops;
    (*counters)["packets_injected"] = net->packets_injected();
    (*counters)["queued_at_drain"] = net->queued_packets();
    (*counters)["faults_injected"] = plan.injected_total();
    (*counters)["fault_summary"] = plan.summary();
    (*counters)["recoveries"] = recovery.recoveries();
    (*counters)["quarantines"] = watchdog.quarantines();
    (*counters)["health_suspects"] = scanner.suspects();
    (*counters)["health_quarantines"] = scanner.quarantines();
    (*counters)["health_readmissions"] = scanner.readmissions();
    (*counters)["elections"] = quorum ? quorum->elections() : 0;
  }
  ctx.sim_events = net->sim().events_executed();
  return monitor.total_violations();
}

json::Object run_chaos_fuzz(RunContext& ctx) {
  maybe_inject_failure(ctx);

  const bool plant_bug = ctx.param_bool("plant_bug", false);
  const bool minimize = ctx.param_bool("minimize", true);

  // Replay mode: an explicit plan (the reproducer artifact) instead of a
  // fuzzed one. Everything else — fabric, seeds, traffic — is identical,
  // which is what makes the reproducer deterministic.
  std::vector<services::FaultEvent> events;
  const std::string plan_json = ctx.param_string("plan_json", "");
  std::uint64_t fuzz_seed = 0;
  if (!plan_json.empty()) {
    events = services::parse_fault_events(json::parse(plan_json));
  } else {
    chaos::FuzzSpec fs;
    fs.events = static_cast<int>(ctx.param_int("events", 12));
    fs.intensity = ctx.param_double("intensity", 1.0);
    fs.num_tors = static_cast<int>(ctx.param_int("tors", 4));
    fs.ports_per_tor = static_cast<int>(ctx.param_int("uplinks", 1));
    fs.replicas = static_cast<int>(ctx.param_int("controller_replicas", 1));
    // Faults land in the first half of the run: the tail is the recovery
    // and drain window.
    fs.horizon = SimTime::nanos(static_cast<std::int64_t>(
        ctx.param_double("duration_us", 3000.0) * 1e3) / 2);
    const std::int64_t seed_param = ctx.param_int("fuzz_seed", -1);
    fuzz_seed = seed_param >= 0
                    ? static_cast<std::uint64_t>(seed_param)
                    : ctx.seed_for("chaos.fuzz");
    events = chaos::fuzz_plan(fuzz_seed, fs);
  }

  std::string report;
  json::Object counters;
  const std::int64_t violations =
      chaos_run_once(ctx, events, plant_bug, &report, &counters);

  json::Object o = std::move(counters);
  o["fuzz_seed"] = static_cast<std::int64_t>(fuzz_seed);
  o["plan_events"] = static_cast<std::int64_t>(events.size());
  o["violations"] = violations;
  o["report"] = report;

  if (violations > 0 && minimize) {
    const int max_probes =
        static_cast<int>(ctx.param_int("shrink_probes", 200));
    auto res = chaos::shrink_events(
        events,
        [&ctx, plant_bug](const std::vector<services::FaultEvent>& evs) {
          return chaos_run_once(ctx, evs, plant_bug, nullptr, nullptr) > 0;
        },
        max_probes);
    o["minimal_events"] = static_cast<std::int64_t>(res.minimal.size());
    o["shrink_probes"] = res.probes;
    o["shrink_reproduced"] = res.reproduced;
    o["reproducer"] = services::fault_events_to_json(res.minimal);
  }
  return o;
}

json::Object fct_aggregate_row(const traffic::FctAggregate& a) {
  json::Object o;
  o["n"] = a.count();
  o["mean_us"] = a.mean();
  o["p50_us"] = a.percentile(50);
  o["p99_us"] = a.percentile(99);
  o["max_us"] = a.max();
  return o;
}

// --- load_sweep: streaming traffic engine at hybrid fidelity -------------
// Drives the TrafficEngine against one architecture at one load point;
// grid "load" (and optionally "hybrid_threshold") across runs to sweep a
// curve to the FCT knee. A full traffic spec can ride in params under
// "traffic" (spec.h's JSON shape); flat params override its scalars so
// grids stay one-dimensional JSON.
json::Object run_load_sweep(RunContext& ctx) {
  maybe_inject_failure(ctx);
  arch::Params p = arch_params_from(ctx);
  auto inst = make_arch(ctx.param_string("arch", "rotornet-direct"), p);

  traffic::TrafficSpec spec;
  const auto it = ctx.spec.params.find("traffic");
  if (it != ctx.spec.params.end()) {
    spec = traffic::spec_from_json(it->second);
  } else {
    spec.size.base =
        workload::trace_cdf_by_name(ctx.param_string("cdf", "kv"));
  }
  spec.load = ctx.param_double("load", spec.load);
  spec.sources = ctx.param_int("sources", spec.sources);
  spec.hybrid_threshold =
      ctx.param_int("hybrid_threshold", spec.hybrid_threshold);
  // Per-run derived seed: the flow stream is a pure function of
  // (campaign seed, run index), so results.jsonl is byte-identical at any
  // --jobs and under resume.
  spec.seed = ctx.seed_for("traffic");
  traffic::validate(spec);

  traffic::TrafficEngine eng(*inst.net, spec);
  eng.start();
  inst.run_for(SimTime::millis(ctx.param_int("duration_ms", 200)));
  eng.stop();
  // Grace window so in-flight transfers report their FCTs.
  inst.run_for(SimTime::millis(ctx.param_int("drain_ms", 50)));

  json::Object o;
  o["flows_emitted"] = eng.flows_emitted();
  o["flows_packet"] = eng.flows_packet();
  o["flows_fluid"] = eng.flows_fluid();
  o["flows_completed"] = eng.flows_completed();
  o["bytes_offered"] = eng.bytes_offered();
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(eng.stream_fingerprint()));
  o["fingerprint"] = std::string(fp);
  o["mice"] = fct_aggregate_row(eng.mice_fct_us());
  o["elephant"] = fct_aggregate_row(eng.elephant_fct_us());
  o["fluid_recomputes"] = eng.fluid().recomputes();
  const auto t = inst.net->totals();
  o["delivered"] = t.delivered;
  o["fabric_drops"] = t.fabric_drops;
  o["congestion_drops"] = t.congestion_drops;
  ctx.sim_events = inst.net->sim().events_executed();
  return o;
}

// --- selftest: cheap deterministic arithmetic for machinery drills -------
json::Object run_selftest(RunContext& ctx) {
  maybe_inject_failure(ctx);
  Rng rng = ctx.rng();
  std::uint64_t acc = 0;
  const std::int64_t iters = ctx.param_int("iters", 1000);
  for (std::int64_t i = 0; i < iters; ++i) acc ^= rng.next_u64();
  json::Object o;
  o["acc"] = static_cast<std::int64_t>(acc);
  o["draw"] = static_cast<std::int64_t>(ctx.stream("extra").next_u32());
  ctx.sim_events = iters;
  return o;
}

bool register_builtins() {
  register_experiment("fct", run_fct);
  register_experiment("allreduce", run_allreduce);
  register_experiment("sync_resilience", run_sync_resilience);
  register_experiment("gray_detection", run_gray_detection);
  register_experiment("control_chaos", run_control_chaos);
  register_experiment("quorum_chaos", run_quorum_chaos);
  register_experiment("chaos_fuzz", run_chaos_fuzz);
  register_experiment("load_sweep", run_load_sweep);
  register_experiment("selftest", run_selftest);
  return true;
}

// Runs at static-initialization time. This TU is always linked when the
// registry is used (find_experiment lives here), so the built-ins can't be
// stripped while anything can look them up.
const bool kBuiltinsRegistered = register_builtins();

}  // namespace

void register_experiment(const std::string& name, RunFn fn) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  registry()[name] = std::move(fn);
}

RunFn find_experiment(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::string known;
    for (const auto& [n, fn] : registry()) {
      (void)fn;
      known += known.empty() ? n : ", " + n;
    }
    throw std::runtime_error("unknown experiment '" + name +
                             "' (registered: " + known + ")");
  }
  return it->second;
}

std::vector<std::string> experiment_names() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::vector<std::string> names;
  for (const auto& [n, fn] : registry()) {
    (void)fn;
    names.push_back(n);
  }
  return names;
}

arch::Params arch_params_from(const RunContext& ctx) {
  arch::Params p;
  p.tors = static_cast<int>(ctx.param_int("tors", p.tors));
  p.hosts_per_tor =
      static_cast<int>(ctx.param_int("hosts", p.hosts_per_tor));
  p.uplinks = static_cast<int>(ctx.param_int("uplinks", p.uplinks));
  p.slice = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("slice_us", p.slice.us()) * 1e3));
  p.collect_interval = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("collect_interval_ms", p.collect_interval.ms()) *
      1e6));
  p.reconfig_delay = SimTime::nanos(static_cast<std::int64_t>(
      ctx.param_double("reconfig_delay_ms", p.reconfig_delay.ms()) * 1e6));
  // The network seed defaults to the run's derived seed, so replicas of a
  // grid point differ exactly in their stochastic inputs; specs replaying
  // a bench's published numbers pin it with "net_seed".
  p.seed = static_cast<std::uint64_t>(ctx.param_int(
      "net_seed", static_cast<std::int64_t>(ctx.seed_for("net"))));
  // Sharded engine workers; a campaign axis like "shards": [1, 2, 4, 8]
  // sweeps it, and results must be byte-identical across the axis.
  p.shards = static_cast<int>(ctx.param_int("shards", 0));
  return p;
}

arch::Instance make_arch(const std::string& name, const arch::Params& p) {
  using arch::RotorRouting;
  if (name == "clos") return arch::make_clos(p);
  if (name == "cthrough") return arch::make_cthrough(p);
  if (name == "jupiter") return arch::make_jupiter(p);
  if (name == "mordia") return arch::make_mordia(p);
  if (name == "rotornet-vlb")
    return arch::make_rotornet(p, RotorRouting::Vlb);
  if (name == "rotornet-direct")
    return arch::make_rotornet(p, RotorRouting::Direct);
  if (name == "rotornet-direct-hybrid")
    return arch::make_rotornet(p, RotorRouting::Direct, /*hybrid=*/true);
  if (name == "rotornet-ucmp")
    return arch::make_rotornet(p, RotorRouting::Ucmp);
  if (name == "rotornet-hoho")
    return arch::make_rotornet(p, RotorRouting::Hoho);
  if (name == "opera") return arch::make_opera(p);
  if (name == "opera-bulk") return arch::make_opera(p, /*bulk=*/true);
  if (name == "shale") return arch::make_shale(p);
  if (name == "semi-oblivious") return arch::make_semi_oblivious(p);
  throw std::runtime_error("unknown architecture: " + name);
}

}  // namespace oo::runner
