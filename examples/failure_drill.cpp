// Failure drill: a transceiver goes dark mid-run; the recovery service
// detects the loss-of-signal drops, recompiles the schedule around the
// failed port, and overlays fresh routes — traffic heals without operator
// action (the resilience studies OpenOptics' open stack enables).
#include <cstdio>

#include "arch/arch.h"
#include "routing/to_routing.h"
#include "services/failure_recovery.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

int main() {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 2;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);

  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s, core::PathSink sink) {
        return routing::direct_to(s, sink);
      },
      /*poll=*/500_us);
  recovery.start();

  std::vector<HostId> clients = {1, 2, 3, 4, 5, 6, 7};
  workload::KvWorkload kv(*inst.net, 0, clients, 1_ms);
  kv.start();

  inst.run_for(30_ms);
  const auto ops_phase1 = kv.ops_completed();
  std::printf("phase 1 (healthy):   %lld ops, fabric drops=%lld\n",
              static_cast<long long>(ops_phase1),
              static_cast<long long>(inst.net->optical().total_drops()));

  std::printf("\n*** transceiver failure: ToR 0, uplink 0 goes dark ***\n\n");
  inst.net->optical().set_port_failed(0, 0, true);
  inst.run_for(30_ms);
  const auto ops_phase2 = kv.ops_completed() - ops_phase1;
  std::printf("phase 2 (failed+recovered): %lld ops, dark-fiber drops=%lld, "
              "recoveries=%d\n",
              static_cast<long long>(ops_phase2),
              static_cast<long long>(inst.net->optical().drops_failed()),
              recovery.recoveries());

  inst.net->optical().set_port_failed(0, 0, false);
  recovery.recover_now();  // re-admit the repaired port's circuits
  inst.run_for(30_ms);
  const auto ops_phase3 = kv.ops_completed() - ops_phase1 - ops_phase2;
  std::printf("phase 3 (repaired):  %lld ops\n",
              static_cast<long long>(ops_phase3));
  kv.stop();

  const bool healed = recovery.recoveries() >= 1 && ops_phase2 > 100 &&
                      ops_phase3 > 100;
  std::printf("\n%s\n", healed ? "drill passed: traffic healed around the "
                                 "failure and resumed after repair"
                               : "drill FAILED");
  return healed ? 0 : 2;
}
