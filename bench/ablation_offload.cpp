// Ablation: buffer-offloading horizon (§5.2 design knob). The switch keeps
// only the next K calendar days; everything later parks on hosts. Sweeping
// K trades switch buffer against host-link offload traffic — the paper's
// claim is that even buffer-hungry VLB stays far below the switch limit
// once offloading engages. Traffic is an open-loop TrafficSpec (RPC trace,
// line rate).
//
// Gates (exit 2 on failure): as K shrinks from the period P to 2, the
// p99.9 switch buffer never rises and offloaded packets never fall.
#include <cmath>
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "services/monitor.h"
#include "traffic/engine.h"
#include "workload/traces.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Point {
  double p999_kb;
  std::int64_t offloads;
  std::int64_t delivered;
};

Point run(int horizon) {
  arch::Params p;
  p.tors = 16;
  p.hosts_per_tor = 1;
  p.bw = 10e9;
  p.uplinks = 1;
  p.slice = 300_us;
  if (horizon > 0) {
    p.offload = true;
    p.calendar_queues = horizon;
  }
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Vlb);
  services::Monitor mon(*inst.net, 50_us);
  mon.start();
  traffic::TrafficSpec spec;
  spec.sources = inst.net->num_hosts();  // one arrival stream per host
  spec.load = 0.4;
  spec.size.base = workload::trace_cdf(workload::TraceKind::Rpc);
  spec.transfer.mss = 8936;
  spec.open_loop = true;
  traffic::TrafficEngine traffic(*inst.net, std::move(spec));
  traffic.start();
  inst.run_for(15_ms);
  traffic.stop();
  std::int64_t offloads = 0;
  for (NodeId n = 0; n < inst.net->num_tors(); ++n) {
    offloads += inst.net->tor(n).offloads();
  }
  return Point{mon.all_buffer_samples().percentile(99.9) / 1024.0, offloads,
               inst.net->totals().delivered};
}

}  // namespace

int main() {
  bench::banner(
      "Ablation: offload horizon K (calendar days kept on-switch), VLB @40%",
      "smaller K -> less switch buffer, more host offload traffic; "
      "completed deliveries within the horizon dip slightly (offloaded "
      "packets add host round-trips) but nothing is lost");

  std::printf("  %-14s %-16s %-14s %-12s\n", "horizon K", "p99.9 buffer",
              "offloaded pkts", "delivered");
  Point prev = run(0);  // offloading disabled (K = period)
  std::printf("  %-14s %13.0f KB %-14lld %-12lld\n", "off (K=P)",
              prev.p999_kb, static_cast<long long>(prev.offloads),
              static_cast<long long>(prev.delivered));
  bool ok = true;
  for (int k : {12, 8, 5, 3, 2}) {
    const auto pt = run(k);
    std::printf("  %-14d %13.0f KB %-14lld %-12lld\n", k, pt.p999_kb,
                static_cast<long long>(pt.offloads),
                static_cast<long long>(pt.delivered));
    // Judged on the whole KB the row prints: at K <= 3 the p99.9 sits on a
    // floor of a few dozen queued packets, where the percentile's
    // interpolation moves by fractions of a KB.
    if (std::round(pt.p999_kb) > std::round(prev.p999_kb)) {
      std::printf("FAILED: K=%d: p99.9 buffer rose as K shrank\n", k);
      ok = false;
    }
    if (pt.offloads < prev.offloads) {
      std::printf("FAILED: K=%d: offloaded packets fell as K shrank\n", k);
      ok = false;
    }
    prev = pt;
  }
  if (!ok) return 2;
  std::printf("offload ablation bench passed\n");
  return 0;
}
