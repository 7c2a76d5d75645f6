// Table 3 (Appx. A) — 99.9th-percentile switch buffer usage under the
// KV-store / RPC / Hadoop traces at 40% core utilization with open-loop
// traffic (the paper's replay methodology: an open-loop TrafficSpec), for
// the routing schemes that hold packets at intermediate nodes: VLB (with
// and without buffer offloading), HOHO, and UCMP.
//
// Scale note: the paper runs 108 ToRs x 6 uplinks at 100 Gbps in real
// time; this simulation replays a 64-ToR, 2-uplink, 2.5 Gbps scale, so
// absolute bytes are far smaller. Two effects survive scaling cleanly:
// (1) buffer offloading cuts VLB's switch residency several-fold, and
// (2) VLB holds bytes the longest in *total* (cycle-long waits). One does
// not: with only 2 uplinks the deterministic earliest-arrival schemes
// (HOHO/UCMP) concentrate onto few hot relays, inflating their per-switch
// peak above VLB's uniformly spread waits — at the paper's 108x6 fan-out
// that concentration dilutes and VLB dominates (see EXPERIMENTS.md).
//
// Gates (exit 2 on failure), on every trace: VLB's median buffer exceeds
// HOHO's and UCMP's, and offloading cuts VLB's p99.9 at least 4x.
#include <algorithm>
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "services/monitor.h"
#include "traffic/engine.h"
#include "workload/traces.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Cell {
  double median_kb;
  double p999_kb;
  std::int64_t offloads;
};

Cell run(workload::TraceKind kind, arch::RotorRouting routing, bool offload) {
  arch::Params p;
  p.tors = 64;
  p.hosts_per_tor = 1;
  p.bw = 2.5e9;
  p.uplinks = 2;
  p.slice = 200_us;
  if (offload) {
    // Offloading keeps only the near-future calendar days on the switch
    // (§5.2); the rest park on hosts until their slice approaches.
    p.offload = true;
    p.calendar_queues = 9;
  }
  auto inst = arch::make_rotornet(p, routing);
  services::Monitor mon(*inst.net, 100_us);
  mon.start();
  traffic::TrafficSpec spec;
  spec.sources = inst.net->num_hosts();  // one arrival stream per host
  spec.load = 0.4;
  spec.size.base = workload::trace_cdf(kind);
  spec.transfer.mss = 8936;
  spec.open_loop = true;
  traffic::TrafficEngine traffic(*inst.net, std::move(spec));
  traffic.start();
  inst.run_for(25_ms);
  traffic.stop();
  std::int64_t offloads = 0;
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    offloads += inst.net->tor(n).offloads();
  }
  const auto& s = mon.all_buffer_samples();
  return Cell{s.median() / 1024.0, s.percentile(99.9) / 1024.0, offloads};
}

}  // namespace

int main() {
  bench::banner(
      "Table 3: switch buffer usage, 200 us slices, 40% core load "
      "(64 ToRs x 2 uplinks, open-loop traffic)",
      "paper @108ToR/6up/100G: VLB 9.5-12.8 MB (offload -> 1.3-1.6 MB), "
      "HOHO 2.4-3.9 MB, UCMP 2.4-6.5 MB. Offloading's several-fold cut "
      "reproduces; small fan-out concentrates HOHO/UCMP (see header)");

  std::printf("  %-10s | %20s | %20s | %20s | %20s\n", "trace",
              "VLB med/p99.9 KB", "VLB+off med/p99.9", "HOHO med/p99.9",
              "UCMP med/p99.9");
  bench::Gate gate;
  for (auto kind : {workload::TraceKind::KvStore, workload::TraceKind::Rpc,
                    workload::TraceKind::Hadoop}) {
    const auto vlb = run(kind, arch::RotorRouting::Vlb, false);
    const auto vlb_off = run(kind, arch::RotorRouting::Vlb, true);
    const auto hoho = run(kind, arch::RotorRouting::Hoho, false);
    const auto ucmp = run(kind, arch::RotorRouting::Ucmp, false);
    std::printf(
        "  %-10s | %8.0f / %9.0f | %8.0f / %9.0f | %8.0f / %9.0f | "
        "%8.0f / %9.0f\n",
        workload::trace_name(kind), vlb.median_kb, vlb.p999_kb,
        vlb_off.median_kb, vlb_off.p999_kb, hoho.median_kb, hoho.p999_kb,
        ucmp.median_kb, ucmp.p999_kb);
    const double cut = vlb.p999_kb / std::max(1.0, vlb_off.p999_kb);
    std::printf("  %-10s   offloading cut: %.1fx (%lld packets offloaded)\n",
                "", cut, static_cast<long long>(vlb_off.offloads));
    gate.check(
        vlb.median_kb > hoho.median_kb && vlb.median_kb > ucmp.median_kb,
        "%s: VLB's median does not exceed HOHO's and UCMP's",
        workload::trace_name(kind));
    gate.check(cut >= 4.0, "%s: offloading cuts VLB's p99.9 only %.1fx "
               "(gate: 4x)", workload::trace_name(kind), cut);
  }
  return gate.finish("table 3 bench passed");
}
