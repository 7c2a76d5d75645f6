// Fig. 10 — Case III: choice of optical hardware. RotorNet mice FCT as a
// function of the OCS technology's supported slice duration (2 us AWGR,
// 20 us rotor, 100 us / 200 us liquid-crystal-class), under VLB vs UCMP.
//
// Gates (exit 2 on failure): VLB's p50 rises with the slice length, and
// UCMP's p50 is below VLB's at every slice length.
#include <cstdio>
#include <iterator>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

namespace {

PercentileSampler run_kv(arch::Instance& inst, SimTime horizon) {
  std::vector<HostId> clients;
  for (HostId h = 1; h < inst.net->num_hosts(); ++h) clients.push_back(h);
  workload::KvWorkload kv(*inst.net, 0, clients, 2_ms);
  kv.start();
  inst.run_for(horizon);
  kv.stop();
  return kv.fct_us();
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 10: mice FCT on RotorNet vs OCS slice duration",
      "VLB tail grows with slice duration (waits ~a cycle at the worst); "
      "UCMP flat-ish, degraded at 2 us (missed slices / deferrals), sweet "
      "spot near 100 us");

  struct OcsPoint {
    const char* name;
    SimTime slice;
  };
  const OcsPoint points[] = {
      {"awgr-2us", 2_us},
      {"rotor-20us", 20_us},
      {"lc-100us", 100_us},
      {"lc-200us", 200_us},
  };

  const arch::RotorRouting routings[] = {arch::RotorRouting::Vlb,
                                         arch::RotorRouting::Ucmp};
  double p50[2][std::size(points)] = {};  // [VLB, UCMP][slice], as printed
  for (std::size_t r = 0; r < 2; ++r) {
    std::printf("--- %s ---\n", r == 0 ? "VLB" : "UCMP");
    for (std::size_t i = 0; i < std::size(points); ++i) {
      arch::Params p;
      p.tors = 8;
      p.hosts_per_tor = 1;
      p.slice = points[i].slice;
      auto inst = arch::make_rotornet(p, routings[r]);
      const auto fct = run_kv(inst, 250_ms);
      bench::fct_row(points[i].name, fct);
      p50[r][i] = bench::printed(fct.percentile(50), 1);
    }
  }
  bench::Gate gate;
  for (std::size_t i = 0; i < std::size(points); ++i) {
    gate.check(i == 0 || p50[0][i] > p50[0][i - 1],
               "%s: VLB's p50 does not rise with the slice length",
               points[i].name);
    gate.check(p50[1][i] < p50[0][i], "%s: UCMP's p50 is not below VLB's",
               points[i].name);
  }
  return gate.finish("fig 10 bench passed");
}
