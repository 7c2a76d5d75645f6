// Chaos drill: a JSON-scripted FaultPlan throws every injectable fault
// class at a c-Through hybrid instance — link flaps, transceiver BER
// degradation, a control-plane outage, and an OCS reconfiguration stall —
// while the event-driven recovery service masks failures, re-admits
// repaired circuits, retries deploys through the controller outage, and
// flips the hybrid steering into degraded mode so elephants lean on the
// electrical fabric. Prints the robustness telemetry the run produced.
//
// With --clock-chaos the drill switches fault domains: a rotor calendar
// fabric takes a clock-drift ramp with suppressed resync beacons (the §7
// silent wrong-slice hazard), a clock step, and a fabric-wide sync outage,
// while the SyncWatchdog detects the desync from observable symptoms and
// walks the drifted ToR down the widen -> quarantine -> re-admit ladder.
//
// With --control-chaos the drill targets the transactional southbound
// control plane: a rotor fabric takes total install-message loss to one
// ToR, fabric-wide message duplication, port churn that forces recovery
// redeploys through the degraded channel, and a controller crash with
// restart resync. The fenced run is executed twice (the seed-determinism
// replay gate: counter fingerprints must match byte-for-byte) and once
// with fencing disabled — the legacy scatter baseline — which must expose
// mixed-epoch slices that the transaction keeps at zero.
//
// With --trace=PATH the whole drill is captured in the flight recorder and
// written as Chrome trace_event JSON (chrome://tracing, Perfetto): circuit
// up/down per fault, per-class drops, control-plane deploys and retries —
// and, under --clock-chaos, wrong-slice launches, lost beacons, desync
// detections, guard widenings, quarantines, and re-admissions.
// With --quorum-chaos the control plane runs as a 3-replica controller
// quorum: a scripted leader kill lands mid-deploy-transaction (the new
// leader finishes or presumed-aborts the in-flight epoch from the
// replicated log), a replica partition opens and heals, and a log
// divergence self-repairs on the next sync. The scenario runs twice and
// the counter fingerprints must match byte-for-byte (the replay gate),
// with zero mixed-epoch slices leaking from the dead leader's term.
//
// With --gray-chaos the drill injects the four gray-failure kinds in
// disjoint windows on disjoint nodes — a BER aging ramp, an intermittent
// port-pair, a silently non-applying install agent, and a telemetry skew —
// and the HealthScanner must localize each from observable symptoms alone
// (conservation audits, tomography, probes, claim-vs-behavior), walk the
// Suspect -> Degraded -> Quarantined ladder, and re-admit after the fault
// heals, with zero off-target suspects. The scenario runs twice and the
// counter fingerprints must match byte-for-byte (the replay gate).
#include <cstdio>
#include <string>

#include "arch/arch.h"
#include "common/cli.h"
#include "core/quorum.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "services/export.h"
#include "services/failure_recovery.h"
#include "services/fault_plan.h"
#include "services/health_scanner.h"
#include "services/hybrid_steering.h"
#include "services/monitor.h"
#include "services/sync_watchdog.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_export.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

namespace {

void write_trace(const std::string& trace_path,
                 const telemetry::FlightRecorder& recorder) {
  if (trace_path.empty()) return;
  services::write_file(trace_path, telemetry::chrome_trace_json(recorder));
  std::printf("wrote Chrome trace (%zu events) to %s\n", recorder.size(),
              trace_path.c_str());
}

int run_fault_drill(const std::string& trace_path) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.collect_interval = 20_ms;
  p.reconfig_delay = 5_ms;  // fast MEMS so the drill fits in 300 ms
  auto inst = arch::make_cthrough(p);

  telemetry::FlightRecorder recorder(std::size_t{1} << 16);
  if (!trace_path.empty()) inst.net->sim().set_recorder(&recorder);

  services::Monitor monitor(*inst.net, 1_ms);
  monitor.start();

  // Elephant + mice mix: a KV service plus bulk flows big enough for the
  // flow-aging classifier to steer onto direct circuits.
  std::vector<HostId> clients = {1, 2, 3, 4, 5, 6, 7};
  workload::KvWorkload kv(*inst.net, 0, clients, 1_ms);
  kv.start();
  inst.net->sim().schedule_every(100_us, 200_us, [net = inst.net.get()]() {
    for (HostId src : {HostId{2}, HostId{5}}) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 1000 + src;
      pkt.dst_host = (src + 3) % 8;
      pkt.size_bytes = 9000;
      net->host(src).send(std::move(pkt));
    }
  });

  // Let the TA control loop deploy circuits before arming recovery, so the
  // captured baseline is the real (non-empty) topology.
  inst.run_for(60_ms);

  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [&](const optics::Schedule&) {
        return routing::electrical_default(p.tors);
      },
      /*scrub=*/1_ms);
  auto steering = inst.steering;
  recovery.set_degraded_hook(
      [steering](bool degraded) { steering->set_degraded(degraded); });
  recovery.start();

  // The fault script, as it would ship in a chaos-drill config file.
  services::FaultPlan plan(*inst.net, /*seed=*/2024, inst.ctl.get());
  plan.load_json(R"({"events": [
    {"kind": "link_flap", "at_us": 80000, "node": 0, "port": 0,
     "down_us": 15000, "period_us": 40000, "cycles": 3, "jitter": 0.2},
    {"kind": "ber", "at_us": 100000, "node": 2, "port": 0, "ber": 2e-6},
    {"kind": "ber", "at_us": 100000, "node": 2, "port": 1, "ber": 2e-6},
    {"kind": "ber", "at_us": 220000, "node": 2, "port": 0, "ber": 0},
    {"kind": "ber", "at_us": 220000, "node": 2, "port": 1, "ber": 0},
    {"kind": "control_fail", "at_us": 120000, "duration_us": 30000},
    {"kind": "control_delay", "at_us": 170000, "delay_us": 2000,
     "duration_us": 40000},
    {"kind": "reconfig_stall", "at_us": 162000, "extra_us": 3000}
  ]})");
  plan.arm();

  inst.run_for(240_ms);
  kv.stop();

  const auto health = monitor.health();
  std::printf("=== chaos drill: %s, 300 ms, %zu scripted events ===\n",
              inst.name.c_str(), plan.size());
  std::printf("injected: %s\n", plan.summary().c_str());
  std::printf("kv ops completed:       %lld\n",
              static_cast<long long>(kv.ops_completed()));
  std::printf("elephants steered:      %lld (diverted while degraded: %lld)\n",
              static_cast<long long>(steering->steered_packets()),
              static_cast<long long>(steering->degraded_diverted()));
  std::printf("fabric drops by class:  failed=%lld corrupt=%lld other=%lld\n",
              static_cast<long long>(health.failed_drops),
              static_cast<long long>(health.corrupt_drops),
              static_cast<long long>(health.fabric_drops -
                                     health.failed_drops -
                                     health.corrupt_drops));
  std::printf("deploys rejected:       %lld (recovery retries: %d)\n",
              static_cast<long long>(inst.ctl->deploys_rejected()),
              recovery.retries());
  std::printf("\n%s\n", services::robustness_csv(
                            recovery, inst.net->optical()).c_str());

  write_trace(trace_path, recorder);

  const bool passed = recovery.recoveries() >= 1 &&
                      recovery.port_downs() >= 3 &&
                      recovery.port_ups() >= 3 &&
                      recovery.availability() < 1.0 &&
                      recovery.availability() > 0.0 &&
                      kv.ops_completed() > 100;
  std::printf("%s\n", passed ? "chaos drill passed: all fault classes "
                               "injected, detected, and recovered"
                             : "chaos drill FAILED");
  return passed ? 0 : 2;
}

int run_clock_drill(const std::string& trace_path) {
  // Short slices so a realistic drift rate walks a clock across a full
  // slice (the silent misdelivery regime) within milliseconds of sim time.
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 5_us;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  auto* net = inst.net.get();

  telemetry::FlightRecorder recorder(std::size_t{1} << 16);
  if (!trace_path.empty()) net->sim().set_recorder(&recorder);

  // The watchdog's quarantine hook drives per-node degraded steering: the
  // moment a ToR is fenced off the calendar, elephant flows from/to it stop
  // targeting optical circuits at the source host.
  auto steering = std::make_shared<services::HybridSteering>(
      *net, /*elephant_bytes=*/256 << 10, /*idle_reset=*/50_ms);
  services::SyncWatchdog watchdog(*net);
  std::int64_t wrong_at_quarantine = -1;
  watchdog.set_quarantine_hook(
      [steering, net, &wrong_at_quarantine](NodeId n, bool quarantined) {
        steering->set_node_degraded(n, quarantined);
        if (quarantined && wrong_at_quarantine < 0) {
          wrong_at_quarantine = net->optical().wrong_slice();
        }
      });
  watchdog.start();

  // Steady all-to-all calendar traffic: every launch is a chance for a
  // drifted sender to hit the wrong circuit.
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

  // The clock-fault script: node 2 drifts fast with its beacons suppressed
  // (drift compounds unchecked — the silent hazard), node 5 takes an
  // instant 30 us step that the next beacon disciplines, and a short
  // fabric-wide outage exercises the watchdog's probe/backoff path.
  services::FaultPlan plan(*net, /*seed=*/2024, inst.ctl.get());
  plan.load_json(R"({"events": [
    {"kind": "clock_drift", "at_us": 2000, "node": 2, "ppm": 8000,
     "duration_us": 6000},
    {"kind": "beacon_loss", "at_us": 2000, "node": 2, "duration_us": 6000},
    {"kind": "clock_step", "at_us": 14000, "node": 5, "extra_us": 30},
    {"kind": "sync_outage", "at_us": 17000, "duration_us": 800}
  ]})");
  plan.arm();

  inst.run_for(26_ms);
  // Quiet tail: every clock is disciplined again — the fabric must carry
  // zero further wrong-slice launches.
  const std::int64_t wrong_quiet = net->optical().wrong_slice();
  inst.run_for(5_ms);
  const std::int64_t wrong_final = net->optical().wrong_slice();

  const auto& fab = net->optical();
  std::int64_t arrivals = 0;
  for (NodeId n = 0; n < net->num_tors(); ++n) {
    arrivals += net->tor(n).wrong_slice_arrivals();
  }
  std::printf("=== clock chaos drill: %s, 31 ms, %zu scripted events ===\n",
              inst.name.c_str(), plan.size());
  std::printf("injected: %s\n", plan.summary().c_str());
  std::printf("wrong-slice launches:   %lld (at quarantine: %lld, "
              "after quiet tail: +%lld)\n",
              static_cast<long long>(wrong_final),
              static_cast<long long>(wrong_at_quarantine),
              static_cast<long long>(wrong_final - wrong_quiet));
  std::printf("wrong-slice arrivals:   %lld (receive-side symptom)\n",
              static_cast<long long>(arrivals));
  std::printf("watchdog: desyncs=%lld widenings=%lld quarantines=%lld "
              "readmissions=%lld probes ok/lost=%lld/%lld\n",
              static_cast<long long>(watchdog.desyncs_detected()),
              static_cast<long long>(watchdog.guard_widenings()),
              static_cast<long long>(watchdog.quarantines()),
              static_cast<long long>(watchdog.readmissions()),
              static_cast<long long>(watchdog.probes_ok()),
              static_cast<long long>(watchdog.probes_lost()));
  if (watchdog.time_to_detect_us().count() > 0) {
    std::printf("detect latency:         p50=%.1f us (n=%zu)\n",
                watchdog.time_to_detect_us().percentile(50),
                watchdog.time_to_detect_us().count());
  }
  if (watchdog.quarantine_us().count() > 0) {
    std::printf("quarantine held:        p50=%.1f us (n=%zu)\n",
                watchdog.quarantine_us().percentile(50),
                watchdog.quarantine_us().count());
  }
  std::printf("fabric: delivered=%lld drops=%lld\n",
              static_cast<long long>(fab.delivered()),
              static_cast<long long>(fab.total_drops()));

  write_trace(trace_path, recorder);

  const bool passed = watchdog.desyncs_detected() >= 1 &&
                      watchdog.quarantines() >= 1 &&
                      watchdog.readmissions() >= 1 &&
                      watchdog.probes_lost() >= 1 &&
                      wrong_at_quarantine >= 0 &&
                      wrong_final > 0 &&          // the hazard manifested
                      wrong_final == wrong_quiet &&  // ...and was contained
                      !steering->node_degraded(2);   // node 2 re-admitted
  std::printf("%s\n",
              passed ? "clock chaos drill passed: desync detected from "
                       "symptoms, quarantined, and re-admitted"
                     : "clock chaos drill FAILED");
  return passed ? 0 : 2;
}

// Counter fingerprint of one control-chaos scenario run. Two runs of the
// same scenario at the same seed must produce identical fingerprints (the
// replay gate); the fenced/unfenced pair differ exactly in the epoch
// exposure the transaction prevents.
struct ControlFingerprint {
  std::uint64_t epoch = 0;
  std::int64_t commits = 0;
  std::int64_t aborts = 0;
  std::int64_t rollbacks = 0;
  std::int64_t fenced = 0;
  std::int64_t resyncs = 0;
  std::int64_t rejected = 0;
  std::int64_t mixed = 0;
  std::int64_t sb_sent = 0;
  std::int64_t sb_lost = 0;
  std::int64_t sb_duped = 0;
  std::int64_t delivered = 0;
  std::int64_t events = 0;
  int recoveries = 0;
  int retries = 0;

  std::string summary() const {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "epoch=%llu commits=%lld aborts=%lld rollbacks=%lld fenced=%lld "
        "resyncs=%lld rejected=%lld mixed=%lld sb=%lld/%lld/%lld "
        "delivered=%lld events=%lld recoveries=%d retries=%d",
        static_cast<unsigned long long>(epoch),
        static_cast<long long>(commits), static_cast<long long>(aborts),
        static_cast<long long>(rollbacks), static_cast<long long>(fenced),
        static_cast<long long>(resyncs), static_cast<long long>(rejected),
        static_cast<long long>(mixed), static_cast<long long>(sb_sent),
        static_cast<long long>(sb_lost), static_cast<long long>(sb_duped),
        static_cast<long long>(delivered), static_cast<long long>(events),
        recoveries, retries);
    return buf;
  }
};

ControlFingerprint run_control_scenario(bool fencing,
                                        const std::string& trace_path) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 50_us;
  p.seed = 7;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  telemetry::FlightRecorder recorder(std::size_t{1} << 16);
  if (!trace_path.empty()) net->sim().set_recorder(&recorder);

  // The architecture's initial deploy already happened over an ideal
  // (inline) channel; from here on every install crosses a 20 us modeled
  // southbound, so recovery redeploys are real two-phase transactions.
  ctl->set_fencing(fencing);
  core::SouthboundConfig sb;
  sb.latency = 20_us;
  ctl->southbound().configure(sb);

  services::FailureRecovery recovery(
      *net, *ctl,
      [](const optics::Schedule& s) { return routing::direct_to(s); },
      /*scrub=*/1_ms);
  recovery.start();

  // Steady calendar traffic so epoch mixture is a forwarding-plane fact,
  // not just a bookkeeping one.
  net->sim().schedule_every(25_us, 100_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 700 + src;
      pkt.dst_host = (src + 3) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });

  // The control-chaos script: total install loss to ToR 3 while port churn
  // forces redeploys (every prepare times out and rolls back until the
  // window lifts), then fabric-wide duplication (echo installs must be
  // fenced), then a controller crash spanning a failure (deploys rejected,
  // retried, and resynced after restart).
  services::FaultPlan plan(*net, /*seed=*/2024, ctl);
  plan.load_json(R"({"events": [
    {"kind": "sb_msg_loss", "at_us": 5000, "node": 3, "prob": 1.0,
     "duration_us": 20000},
    {"kind": "port_fail", "at_us": 8000, "node": 0, "port": 0},
    {"kind": "port_repair", "at_us": 22000, "node": 0, "port": 0},
    {"kind": "sb_msg_dup", "at_us": 30000, "prob": 0.5,
     "duration_us": 12000},
    {"kind": "port_fail", "at_us": 32000, "node": 1, "port": 0},
    {"kind": "port_repair", "at_us": 38000, "node": 1, "port": 0},
    {"kind": "controller_crash", "at_us": 45000, "duration_us": 3000},
    {"kind": "port_fail", "at_us": 46000, "node": 2, "port": 0},
    {"kind": "port_repair", "at_us": 58000, "node": 2, "port": 0}
  ]})");
  plan.arm();

  inst.run_for(80_ms);

  write_trace(trace_path, recorder);

  ControlFingerprint fp;
  fp.epoch = ctl->committed_epoch();
  fp.commits = ctl->txn_commits();
  fp.aborts = ctl->txn_aborts();
  fp.rollbacks = ctl->txn_rollbacks();
  fp.fenced = ctl->fenced_stale_installs();
  fp.resyncs = ctl->resyncs();
  fp.rejected = ctl->deploys_rejected();
  fp.mixed = net->mixed_epoch_slices();
  fp.sb_sent = ctl->southbound().msgs_sent();
  fp.sb_lost = ctl->southbound().msgs_lost();
  fp.sb_duped = ctl->southbound().msgs_duped();
  fp.delivered = net->optical().delivered();
  fp.events = net->sim().events_executed();
  fp.recoveries = recovery.recoveries();
  fp.retries = recovery.retries();
  return fp;
}

int run_control_drill(const std::string& trace_path) {
  const ControlFingerprint fenced = run_control_scenario(true, trace_path);
  const ControlFingerprint replay = run_control_scenario(true, "");
  const ControlFingerprint scatter = run_control_scenario(false, "");

  std::printf("=== control chaos drill: rotornet-direct, 80 ms, "
              "9 scripted events ===\n");
  std::printf("fenced:   %s\n", fenced.summary().c_str());
  std::printf("replay:   %s\n", replay.summary().c_str());
  std::printf("scatter:  %s\n", scatter.summary().c_str());

  const bool deterministic = fenced.summary() == replay.summary();
  const bool passed = deterministic &&
                      fenced.mixed == 0 &&        // txn hides epoch mixture
                      scatter.mixed > 0 &&        // ...that scatter exposes
                      fenced.commits >= 2 &&
                      fenced.aborts >= 1 &&       // loss window rolled back
                      fenced.rollbacks >= 1 &&
                      fenced.resyncs == 1 &&      // crash + restart resynced
                      fenced.rejected >= 1 &&     // deploys hit the outage
                      fenced.sb_lost >= 1 &&
                      fenced.sb_duped >= 1 &&
                      fenced.recoveries >= 1 &&
                      fenced.retries >= 1;
  if (!deterministic) {
    std::printf("replay gate FAILED: fingerprints differ\n");
  }
  std::printf("%s\n",
              passed ? "control chaos drill passed: lossy southbound "
                       "contained, stale installs fenced, crash resynced, "
                       "replay deterministic"
                     : "control chaos drill FAILED");
  return passed ? 0 : 2;
}

// Counter fingerprint of one quorum-chaos scenario run: everything the
// election, replication, failover, and transaction machinery counts.
struct QuorumFingerprint {
  std::uint64_t epoch = 0;
  std::uint64_t term = 0;
  std::int64_t commits = 0;
  std::int64_t aborts = 0;
  std::int64_t rollbacks = 0;
  std::int64_t resyncs = 0;
  std::int64_t rejected = 0;
  std::int64_t mixed = 0;
  std::int64_t elections = 0;
  std::int64_t failovers = 0;
  std::int64_t step_downs = 0;
  std::int64_t repairs = 0;
  std::int64_t cut = 0;
  std::int64_t stale = 0;
  std::int64_t log_len = 0;
  std::int64_t rep_sent = 0;
  std::int64_t rep_lost = 0;
  std::int64_t events = 0;
  int retries = 0;
  bool deploy_done = false;

  std::string summary() const {
    char buf[360];
    std::snprintf(
        buf, sizeof(buf),
        "epoch=%llu term=%llu commits=%lld aborts=%lld rollbacks=%lld "
        "resyncs=%lld rejected=%lld mixed=%lld elections=%lld failovers=%lld "
        "stepdowns=%lld repairs=%lld cut=%lld stale=%lld log=%lld "
        "rep=%lld/%lld events=%lld retries=%d done=%d",
        static_cast<unsigned long long>(epoch),
        static_cast<unsigned long long>(term),
        static_cast<long long>(commits), static_cast<long long>(aborts),
        static_cast<long long>(rollbacks), static_cast<long long>(resyncs),
        static_cast<long long>(rejected), static_cast<long long>(mixed),
        static_cast<long long>(elections), static_cast<long long>(failovers),
        static_cast<long long>(step_downs), static_cast<long long>(repairs),
        static_cast<long long>(cut), static_cast<long long>(stale),
        static_cast<long long>(log_len), static_cast<long long>(rep_sent),
        static_cast<long long>(rep_lost), static_cast<long long>(events),
        retries, deploy_done ? 1 : 0);
    return buf;
  }
};

QuorumFingerprint run_quorum_scenario(const std::string& trace_path) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 50_us;
  p.seed = 7;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  telemetry::FlightRecorder recorder(std::size_t{1} << 16);
  if (!trace_path.empty()) net->sim().set_recorder(&recorder);

  core::SouthboundConfig sb;
  sb.latency = 20_us;
  ctl->southbound().configure(sb);

  // Three controller replicas over the same modeled channel; replica 0
  // bootstraps leadership, so the architecture's already-deployed state is
  // simply inherited by the quorum.
  core::QuorumConfig qc;
  qc.replicas = 3;
  qc.election_timeout = 200_us;
  qc.heartbeat = 50_us;
  core::ControllerQuorum quorum(*net, *ctl, qc);
  quorum.start();

  services::FailureRecovery recovery(
      *net, *ctl,
      [](const optics::Schedule& s) { return routing::direct_to(s); },
      /*scrub=*/1_ms);
  recovery.start();

  net->sim().schedule_every(25_us, 100_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 900 + src;
      pkt.dst_host = (src + 3) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });

  // The quorum-chaos script: port churn so recovery redeploys ride the
  // quorum, a log divergence that must self-heal, the leader killed
  // *mid-transaction* (see the scheduled deploy below), and a replica
  // partition that opens and heals.
  services::FaultPlan plan(*net, /*seed=*/2024, ctl);
  plan.load_json(R"({"events": [
    {"kind": "port_fail", "at_us": 8000, "node": 0, "port": 0},
    {"kind": "port_repair", "at_us": 16000, "node": 0, "port": 0},
    {"kind": "log_divergence", "at_us": 12000, "replica": 2},
    {"kind": "leader_kill", "at_us": 20050, "duration_us": 2000},
    {"kind": "replica_partition", "at_us": 30000, "replica": 1,
     "duration_us": 3000},
    {"kind": "port_fail", "at_us": 34000, "node": 2, "port": 0},
    {"kind": "port_repair", "at_us": 40000, "node": 2, "port": 0}
  ]})");
  plan.arm();

  // A deploy issued 50 us before the leader_kill fires: its prepare is
  // acked but its commit record is still replicating when the leader dies —
  // the new leader must finish or presumed-abort it from the log.
  QuorumFingerprint fp;
  net->sim().schedule_at(20_ms, [&]() {
    ctl->deploy_update(net->schedule(), routing::direct_to(net->schedule()),
                       core::LookupMode::PerHop, core::MultipathMode::None,
                       1, 1, SimTime::zero(),
                       [&fp](bool) { fp.deploy_done = true; });
  });

  inst.run_for(60_ms);

  write_trace(trace_path, recorder);

  fp.epoch = ctl->committed_epoch();
  fp.term = quorum.term();
  fp.commits = ctl->txn_commits();
  fp.aborts = ctl->txn_aborts();
  fp.rollbacks = ctl->txn_rollbacks();
  fp.resyncs = ctl->resyncs();
  fp.rejected = ctl->deploys_rejected();
  fp.mixed = net->mixed_epoch_slices();
  fp.elections = quorum.elections();
  fp.failovers = quorum.failovers();
  fp.step_downs = quorum.step_downs();
  fp.repairs = quorum.log_repairs();
  fp.cut = quorum.msgs_cut();
  fp.stale = ctl->stale_term_rejections();
  fp.log_len = quorum.log_length();
  fp.rep_sent = ctl->southbound().replica_msgs_sent();
  fp.rep_lost = ctl->southbound().replica_msgs_lost();
  fp.events = net->sim().events_executed();
  fp.retries = recovery.retries();
  return fp;
}

int run_quorum_drill(const std::string& trace_path) {
  const QuorumFingerprint first = run_quorum_scenario(trace_path);
  const QuorumFingerprint replay = run_quorum_scenario("");

  std::printf("=== quorum chaos drill: rotornet-direct, 3 replicas, 60 ms, "
              "7 scripted events ===\n");
  std::printf("run:      %s\n", first.summary().c_str());
  std::printf("replay:   %s\n", replay.summary().c_str());

  const bool deterministic = first.summary() == replay.summary();
  const bool passed = deterministic &&
                      first.deploy_done &&       // mid-kill txn resolved
                      first.failovers >= 1 &&    // leadership moved
                      first.elections >= 1 &&
                      first.term >= 2 &&
                      first.repairs >= 1 &&      // diverged log healed
                      first.cut >= 1 &&          // partition actually cut
                      first.resyncs >= 1 &&      // takeover resynced
                      first.commits >= 2 &&
                      first.mixed == 0;          // no dead-term leakage
  if (!deterministic) {
    std::printf("replay gate FAILED: fingerprints differ\n");
  }
  std::printf("%s\n",
              passed ? "quorum chaos drill passed: leader killed "
                       "mid-transaction, failover resolved the epoch from "
                       "the replicated log, partition healed, replay "
                       "deterministic"
                     : "quorum chaos drill FAILED");
  return passed ? 0 : 2;
}

// Counter fingerprint of one gray-chaos scenario run: the scanner's ladder
// counters, the per-target verdicts, and the fabric totals. Two runs at the
// same seed must match byte-for-byte (the replay gate).
struct GrayFingerprint {
  std::int64_t audits = 0;
  std::int64_t suspects = 0;
  std::int64_t degrades = 0;
  std::int64_t quarantines = 0;
  std::int64_t readmissions = 0;
  std::int64_t probes_lost = 0;
  std::int64_t off_target = 0;
  std::int64_t delivered = 0;
  std::int64_t drops = 0;
  std::int64_t events = 0;
  // Settled verdict per scripted target (cause as int, port, peer).
  struct Verdict {
    int cause = 0;
    int port = -1;
    int peer = -1;
  };
  Verdict v_ramp, v_pair, v_skew, v_install;

  std::string summary() const {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "audits=%lld suspects=%lld degrades=%lld quarantines=%lld "
        "readmits=%lld probes_lost=%lld off_target=%lld "
        "ramp=%d/%d/%d pair=%d/%d/%d skew=%d/%d/%d install=%d/%d/%d "
        "delivered=%lld drops=%lld events=%lld",
        static_cast<long long>(audits), static_cast<long long>(suspects),
        static_cast<long long>(degrades),
        static_cast<long long>(quarantines),
        static_cast<long long>(readmissions),
        static_cast<long long>(probes_lost),
        static_cast<long long>(off_target), v_ramp.cause, v_ramp.port,
        v_ramp.peer, v_pair.cause, v_pair.port, v_pair.peer, v_skew.cause,
        v_skew.port, v_skew.peer, v_install.cause, v_install.port,
        v_install.peer, static_cast<long long>(delivered),
        static_cast<long long>(drops), static_cast<long long>(events));
    return buf;
  }
};

GrayFingerprint run_gray_scenario(const std::string& trace_path) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  telemetry::FlightRecorder recorder(std::size_t{1} << 16);
  if (!trace_path.empty()) net->sim().set_recorder(&recorder);

  // Degraded steering is per-node: a Degraded verdict weights the node's
  // elephants onto the electrical fabric before quarantine fences it.
  auto steering = std::make_shared<services::HybridSteering>(
      *net, /*elephant_bytes=*/256 << 10, /*idle_reset=*/50_ms);
  services::HealthScanner scanner(*net);
  scanner.set_controller(ctl);
  scanner.set_degrade_hook([steering](NodeId n, bool degraded) {
    steering->set_node_degraded(n, degraded);
  });

  // Scripted targets, one per gray kind, in disjoint fault windows.
  const NodeId ramp_node = 2, pair_node = 4, skew_node = 1, install_node = 5;
  GrayFingerprint fp;
  scanner.set_transition_hook([&](NodeId n, services::HealthScanner::NodeHealth,
                                  services::HealthScanner::NodeHealth to) {
    if (to != services::HealthScanner::NodeHealth::Quarantined) {
      if (to == services::HealthScanner::NodeHealth::Suspect &&
          n != ramp_node && n != pair_node && n != skew_node &&
          n != install_node) {
        ++fp.off_target;
      }
      return;
    }
    // Keep the last quarantine's verdict: sticky faults oscillate through
    // quarantine/readmit cycles and re-detections classify from richer
    // evidence than the first ladder climb had.
    const auto& b = scanner.blame(n);
    GrayFingerprint::Verdict v;
    v.cause = static_cast<int>(b.cause);
    v.port = b.port == kInvalidPort ? -1 : b.port;
    v.peer = b.peer == kInvalidNode ? -1 : b.peer;
    if (n == ramp_node) fp.v_ramp = v;
    if (n == pair_node) fp.v_pair = v;
    if (n == skew_node) fp.v_skew = v;
    if (n == install_node) fp.v_install = v;
  });
  scanner.start();

  // All-to-all traffic heavy enough that every circuit clears the audit's
  // min-bytes bar each slice — single-destination patterns cannot tell a
  // dying port from one bad pair.
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
  // Periodic identity redeploys give the claim-vs-behavior check a live ack
  // trail — a silent installer is only caught while installs flow.
  net->sim().schedule_every(1_ms, 2_ms, [net, ctl]() {
    ctl->deploy_update(net->schedule(), routing::direct_to(net->schedule()),
                       core::LookupMode::PerHop, core::MultipathMode::None, 1,
                       1, SimTime::zero(), nullptr);
  });

  // The gray-fault script: one window per kind, disjoint in time and target
  // so each verdict is unambiguous.
  services::FaultPlan plan(*net, /*seed=*/2024, ctl);
  plan.load_json(R"({"events": [
    {"kind": "ber_ramp", "at_us": 3000, "node": 2, "port": 0,
     "jitter": 1e-9, "ber": 2e-5, "duration_us": 10000, "cycles": 8},
    {"kind": "ber", "at_us": 15000, "node": 2, "port": 0, "ber": 0},
    {"kind": "gray_port_pair", "at_us": 18000, "node": 4, "port": 0,
     "peer": 6, "prob": 0.5, "duration_us": 8000},
    {"kind": "telemetry_skew", "at_us": 30000, "node": 1, "ppm": 150000,
     "duration_us": 8000},
    {"kind": "silent_install_fail", "at_us": 42000, "node": 5,
     "duration_us": 8000}
  ]})");
  plan.arm();

  inst.run_for(56_ms);

  write_trace(trace_path, recorder);

  fp.audits = scanner.audits();
  fp.suspects = scanner.suspects();
  fp.degrades = scanner.degrades();
  fp.quarantines = scanner.quarantines();
  fp.readmissions = scanner.readmissions();
  fp.probes_lost = scanner.probes_lost();
  fp.delivered = net->optical().delivered();
  fp.drops = net->optical().total_drops();
  fp.events = net->sim().events_executed();
  return fp;
}

int run_gray_drill(const std::string& trace_path) {
  const GrayFingerprint first = run_gray_scenario(trace_path);
  const GrayFingerprint replay = run_gray_scenario("");

  std::printf("=== gray chaos drill: rotornet-direct-hybrid, 56 ms, "
              "4 scripted gray faults ===\n");
  std::printf("run:      %s\n", first.summary().c_str());
  std::printf("replay:   %s\n", replay.summary().c_str());

  using Cause = services::HealthScanner::Cause;
  const bool deterministic = first.summary() == replay.summary();
  const bool passed =
      deterministic &&
      first.v_ramp.cause == static_cast<int>(Cause::PortDegrade) &&
      first.v_ramp.port == 0 &&
      first.v_pair.cause == static_cast<int>(Cause::LinkLoss) &&
      first.v_pair.port == 0 && first.v_pair.peer == 6 &&
      first.v_skew.cause == static_cast<int>(Cause::TelemetrySkew) &&
      first.v_install.cause == static_cast<int>(Cause::SilentInstall) &&
      first.off_target == 0 &&         // nobody honest was suspected
      first.quarantines >= 4 &&        // every fault reached the fence
      first.readmissions >= 4 &&       // ...and healed back out
      first.probes_lost >= 1;          // probes corroborated real loss
  if (!deterministic) {
    std::printf("replay gate FAILED: fingerprints differ\n");
  }
  std::printf("%s\n",
              passed ? "gray chaos drill passed: all four gray kinds "
                       "localized from symptoms, ladder walked both ways, "
                       "zero off-target suspects, replay deterministic"
                     : "gray chaos drill FAILED");
  return passed ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool clock_chaos = false;
  bool control_chaos = false;
  bool quorum_chaos = false;
  bool gray_chaos = false;
  cli::ArgParser args("chaos_drill",
                      "scripted fault drill against the recovery services");
  args.flag("--clock-chaos", &clock_chaos,
            "clock-drift drill against the sync watchdog")
      .flag("--control-chaos", &control_chaos,
            "southbound transaction drill against the control plane")
      .flag("--quorum-chaos", &quorum_chaos,
            "replicated-controller drill: leader kill, partition, failover")
      .flag("--gray-chaos", &gray_chaos,
            "gray-failure drill against the evidence-based health scanner")
      .option("--trace", &trace_path, "write a Chrome trace_event JSON");
  if (!args.parse(argc, argv)) return 1;
  if (gray_chaos) return run_gray_drill(trace_path);
  if (quorum_chaos) return run_quorum_drill(trace_path);
  if (control_chaos) return run_control_drill(trace_path);
  return clock_chaos ? run_clock_drill(trace_path)
                     : run_fault_drill(trace_path);
}
