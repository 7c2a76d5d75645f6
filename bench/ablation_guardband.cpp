// Ablation: guardband sizing at the 2 us minimum slice (§7 design choice).
// Sweeps the configured guardband through the analytic budget's
// components; loss appears exactly when the guard stops covering the OCS
// retargeting window + system jitter, and duty-cycle (goodput) falls as
// the guard grows — the trade the paper's 200 ns sits on.
//
// Gates (exit 2 on failure): every guard below 200 ns drops packets and
// completes no KV op; every guard of 200 ns or more drops nothing and
// completes ops; duty falls as the guard grows.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/controller.h"
#include "core/guardband.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Point {
  std::int64_t drops;
  std::int64_t ops;
  double duty_pct;
};

Point run(SimTime guard) {
  core::NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  cfg.guardband = guard;
  const SimTime slice = 2_us;
  optics::Schedule sched(4, 1, 3, slice);
  for (const auto& c : topo::round_robin_1d(4, 1)) sched.add_circuit(c);
  core::Network net(cfg, sched, optics::ocs_awgr());
  core::Controller ctl(net);
  ctl.deploy_routing(routing::direct_to(sched), core::LookupMode::PerHop,
                     core::MultipathMode::None);
  net.start();
  workload::KvWorkload kv(net, 0, {1, 2, 3}, 300_us, 1400);
  kv.start();
  net.sim().run_until(60_ms);
  const double usable =
      static_cast<double>((slice - guard - cfg.sync_error * 2).ns());
  return Point{net.optical().total_drops(), kv.ops_completed(),
               100.0 * usable / static_cast<double>(slice.ns())};
}

}  // namespace

int main() {
  bench::banner(
      "Ablation: guardband vs loss and duty cycle at 2 us slices",
      "under ~150 ns (the analytic budget) transmissions collide with "
      "reconfiguration; above it, loss-free, with duty falling linearly — "
      "200 ns is the knee");

  const auto g = core::derive_guardband(core::GuardbandInputs{});
  std::printf("  analytic budget: %s; chosen guardband: %s\n\n",
              g.analytic.str().c_str(), g.guardband.str().c_str());
  std::printf("  %-12s %-12s %-10s %-10s\n", "guardband", "fabric-drops",
              "KV-ops", "duty%");
  bench::Gate gate;
  double prev_duty = 100.0;
  for (std::int64_t ns : {40, 80, 120, 160, 200, 280, 400, 600}) {
    const auto pt = run(SimTime::nanos(ns));
    std::printf("  %-12s %-12lld %-10lld %-10.1f\n",
                SimTime::nanos(ns).str().c_str(),
                static_cast<long long>(pt.drops),
                static_cast<long long>(pt.ops), pt.duty_pct);
    if (ns < 200) {
      gate.check(pt.drops > 0 && pt.ops == 0,
                 "%lld ns: an under-sized guard drops nothing or completes "
                 "ops", static_cast<long long>(ns));
    } else {
      gate.check(pt.drops == 0 && pt.ops > 0,
                 "%lld ns: the guard drops packets or completes no op",
                 static_cast<long long>(ns));
    }
    const double duty = bench::printed(pt.duty_pct, 1);
    gate.check(duty < prev_duty, "%lld ns: duty did not fall",
               static_cast<long long>(ns));
    prev_duty = duty;
  }
  return gate.finish("guardband ablation bench passed");
}
