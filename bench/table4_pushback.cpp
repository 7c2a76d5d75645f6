// Table 4 (Appx. B) — effectiveness of congestion detection and traffic
// push-back under HOHO at 70% load with open-loop traffic (an open-loop
// TrafficSpec): column 1 neither, column 2 detection alone (deferral),
// column 3 detection + push-back. Expect push-back to eliminate loss. The
// delay columns cover delivered packets only, so a configuration that
// drops packets can show the shorter tail.
//
// Gates (exit 2 on failure), on every trace: loss never rises from no
// protection to detection only to detection + push-back, and detection +
// push-back loses no packet.
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "traffic/engine.h"
#include "workload/traces.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Row {
  double gbps;
  std::int64_t lost;
  double loss_pct;
  double avg_delay_us;
  double p95_delay_us;
};

Row run(workload::TraceKind kind, bool detection, bool pushback) {
  arch::Params p;
  p.tors = 16;
  p.hosts_per_tor = 2;
  p.bw = 10e9;
  p.uplinks = 2;
  p.slice = 300_us;
  // Per-queue capacity near two slices' worth of line rate: overload must
  // actually overflow something, as on the real switch's shallow queues.
  p.queue_capacity = 768 << 10;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Hoho);
  auto& cfg = const_cast<core::NetworkConfig&>(inst.net->config());
  cfg.congestion_detection = detection;
  cfg.pushback = pushback;

  PercentileSampler delay_us;
  std::int64_t delivered_bytes = 0;
  inst.net->set_delivery_probe([&](const core::Packet& pkt) {
    delay_us.add((inst.net->sim().now() - pkt.created).us());
    delivered_bytes += pkt.size_bytes;
  });

  // Long flows pace a few times the per-pair circuit capacity (2 of 15 slices
  // at 10 Gbps) — fast enough to stress hot queues, far below NIC bursts.
  traffic::TrafficSpec spec;
  spec.sources = inst.net->num_hosts();  // one arrival stream per host
  spec.load = 0.7;
  spec.size.base = workload::trace_cdf(kind);
  spec.transfer.mss = 8936;
  spec.open_loop = true;
  spec.flow_pace_bps = 3e9;
  traffic::TrafficEngine traffic(*inst.net, std::move(spec));
  traffic.start();
  const SimTime horizon = 10_ms;
  inst.run_for(horizon);
  traffic.stop();

  const auto t = inst.net->totals();
  Row r;
  r.lost = t.congestion_drops + t.fabric_drops;
  const double data_pkts = static_cast<double>(t.delivered + r.lost);
  r.gbps = static_cast<double>(delivered_bytes) * 8.0 / horizon.sec() / 1e9;
  r.loss_pct =
      data_pkts > 0 ? 100.0 * static_cast<double>(r.lost) / data_pkts : 0.0;
  r.avg_delay_us = delay_us.mean();
  r.p95_delay_us = delay_us.percentile(95);
  return r;
}

}  // namespace

int main() {
  bench::banner(
      "Table 4: congestion detection + traffic push-back (HOHO, 70% load, "
      "open-loop)",
      "neither: loss and long tail delays; detection alone: deferrals trim "
      "loss but queues still fill; detection+push-back: loss -> 0 (paper: "
      "1-2% -> 0% loss, 2.2 ms -> ~85 us tail; here the delay columns count "
      "delivered packets only, so the tail need not shrink)");

  std::printf("  %-10s %-28s %10s %8s %12s %12s\n", "trace", "config",
              "thr(Gbps)", "loss%", "avg-delay", "p95-delay");
  bench::Gate gate;
  for (auto kind : {workload::TraceKind::Hadoop, workload::TraceKind::Rpc,
                    workload::TraceKind::KvStore}) {
    const Row none = run(kind, false, false);
    const Row det = run(kind, true, false);
    const Row both = run(kind, true, true);
    const char* name = workload::trace_name(kind);
    std::printf("  %-10s %-28s %10.1f %7.2f%% %10.0fus %10.0fus\n", name,
                "no detection / no pushback", none.gbps, none.loss_pct,
                none.avg_delay_us, none.p95_delay_us);
    std::printf("  %-10s %-28s %10.1f %7.2f%% %10.0fus %10.0fus\n", "",
                "detection only (defer)", det.gbps, det.loss_pct,
                det.avg_delay_us, det.p95_delay_us);
    std::printf("  %-10s %-28s %10.1f %7.2f%% %10.0fus %10.0fus\n", "",
                "detection + pushback", both.gbps, both.loss_pct,
                both.avg_delay_us, both.p95_delay_us);
    gate.check(none.loss_pct >= det.loss_pct && det.loss_pct >= both.loss_pct,
               "%s: loss rises along none -> detection -> detection + "
               "push-back", name);
    gate.check(both.lost == 0, "%s: detection + push-back lost %lld packets",
               name, static_cast<long long>(both.lost));
  }
  return gate.finish("table 4 bench passed");
}
