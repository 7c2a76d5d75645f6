// §7 — minimum time-slice derivation, analytically (guardband budget) and
// empirically (zero loss at the derived guardband; loss when the guardband
// is set below the analytic floor).
//
// Gates (exit 2 on failure): the derivation gives 148 ns, a 200 ns guard
// and a 2 us slice; at the 200 ns guard the fabric drops nothing and KV ops
// complete; at a 40 ns guard it drops packets and no op completes.
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "core/controller.h"
#include "core/guardband.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

namespace {

std::pair<std::int64_t, std::int64_t> run_2us(SimTime guard) {
  // Built directly on core::Network so the guardband is exactly what the
  // operator configured — under-sizing it must hurt, as on hardware.
  core::NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.guardband = guard;
  optics::Schedule sched(4, 1, 3, 2_us);  // the headline minimum slice
  for (const auto& c : oo::topo::round_robin_1d(4, 1)) sched.add_circuit(c);
  core::Network net(cfg, sched, optics::ocs_awgr());
  core::Controller ctl(net);
  ctl.deploy_routing(oo::routing::direct_to(sched), core::LookupMode::PerHop,
                     core::MultipathMode::None);
  net.start();
  std::vector<HostId> clients = {1, 2, 3};
  workload::KvWorkload kv(net, 0, clients, 500_us, /*op=*/1400);
  kv.start();
  net.sim().run_until(60_ms);
  kv.stop();
  return {net.optical().total_drops(), kv.ops_completed()};
}

}  // namespace

int main() {
  bench::banner(
      "Minimum time slice (§7): guardband budget and 2 us validation",
      "34 ns rotation variance + 58 ns EQO window + 2x28 ns sync = 148 ns; "
      "200 ns guardband with headroom; >=90% duty -> 2 us minimum slice, "
      "no loss observed at that setting");

  const auto g = core::derive_guardband(core::GuardbandInputs{});
  std::printf("  rotation variance : %s\n", g.rotation_variance.str().c_str());
  std::printf("  EQO error window  : %s (725 B at 100 Gbps)\n",
              g.eqo_delay.str().c_str());
  std::printf("  sync window (2x)  : %s\n", g.sync_window.str().c_str());
  std::printf("  analytic total    : %s\n", g.analytic.str().c_str());
  std::printf("  guardband         : %s\n", g.guardband.str().c_str());
  std::printf("  minimum slice     : %s (duty factor %d)\n\n",
              g.min_slice.str().c_str(), 10);

  const auto [drops_ok, ops_ok] = run_2us(g.guardband);
  std::printf("  2 us slices @ %s guard: fabric drops=%lld, KV ops=%lld\n",
              g.guardband.str().c_str(), static_cast<long long>(drops_ok),
              static_cast<long long>(ops_ok));
  const auto [drops_low, ops_low] = run_2us(SimTime::nanos(40));
  std::printf("  2 us slices @ 40ns guard : fabric drops=%lld, KV ops=%lld\n",
              static_cast<long long>(drops_low),
              static_cast<long long>(ops_low));
  std::printf("  (an under-sized guardband lets transmissions collide with "
              "reconfiguration)\n");
  bench::Gate gate;
  gate.check(g.analytic == 148_ns && g.guardband == 200_ns &&
                 g.min_slice == 2_us,
             "the derivation does not give 148 ns, 200 ns and 2 us");
  gate.check(drops_ok == 0 && ops_ok > 0,
             "the derived guardband drops packets or completes no op");
  gate.check(drops_low > 0 && ops_low == 0,
             "a 40 ns guardband drops nothing or completes ops");
  return gate.finish("minimum slice bench passed");
}
