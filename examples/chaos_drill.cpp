// Chaos drill: a JSON-scripted FaultPlan throws every injectable fault
// class at a c-Through hybrid instance — link flaps, transceiver BER
// degradation, a control-plane outage, and an OCS reconfiguration stall —
// while the event-driven recovery service masks failures, re-admits
// repaired circuits, retries deploys through the controller outage, and
// flips the hybrid steering into degraded mode so elephants lean on the
// electrical fabric. Prints the robustness telemetry the run produced: the
// fabric.*, recovery.* and tor.* cells of the metrics registry, and the
// recovery service's MTTR and availability.
//
// With --trace=PATH the whole drill is captured in the flight recorder and
// written as Chrome trace_event JSON (chrome://tracing, Perfetto): circuit
// up/down per fault, per-class drops, control-plane deploys and retries.
//
// The clock, control-plane, quorum and gray-failure drills are campaign
// specs of the registered experiments (examples/specs/ci_campaign.json,
// control_chaos.json, quorum_chaos.json, gray_chaos.json; EXPERIMENTS.md).
#include <cstdio>
#include <sstream>
#include <string>

#include "arch/arch.h"
#include "common/cli.h"
#include "routing/ta_routing.h"
#include "services/export.h"
#include "services/failure_recovery.h"
#include "services/fault_plan.h"
#include "services/hybrid_steering.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_export.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

namespace {

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
      [&](const optics::Schedule&, core::PathSink sink) {
        return routing::electrical_default(p.tors, sink);
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

  std::printf("=== chaos drill: %s, 300 ms, %zu scripted events ===\n",
              inst.name.c_str(), plan.size());
  std::printf("injected: %s\n", plan.summary().c_str());
  std::printf("kv ops completed:       %lld\n",
              static_cast<long long>(kv.ops_completed()));
  std::printf("elephants steered:      %lld (diverted while degraded: %lld)\n",
              static_cast<long long>(steering->steered_packets()),
              static_cast<long long>(steering->degraded_diverted()));
  std::printf("deploys rejected:       %lld (recovery retries: %d)\n",
              static_cast<long long>(inst.ctl->deploys_rejected()),
              recovery.retries());
  std::printf("\n");
  std::istringstream rows(inst.net->sim().metrics().csv());
  for (std::string row; std::getline(rows, row);) {
    if (row == "metric,value" || row.starts_with("fabric.") ||
        row.starts_with("recovery.") || row.starts_with("tor.")) {
      std::printf("%s\n", row.c_str());
    }
  }
  const auto& mttr = recovery.mttr_us();
  std::printf("mttr_us_p50,%.6g\n", mttr.empty() ? 0.0 : mttr.percentile(50));
  std::printf("mttr_us_p99,%.6g\n", mttr.empty() ? 0.0 : mttr.percentile(99));
  std::printf("availability,%.6g\n\n", recovery.availability());

  if (!trace_path.empty()) {
    services::write_file(trace_path, telemetry::chrome_trace_json(recorder));
    std::printf("wrote Chrome trace (%zu events) to %s\n", recorder.size(),
                trace_path.c_str());
  }

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

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  cli::ArgParser args("chaos_drill",
                      "scripted fault drill against the recovery services");
  args.option("--trace", &trace_path, "write a Chrome trace_event JSON");
  if (!args.parse(argc, argv)) return 1;
  return run_fault_drill(trace_path);
}
