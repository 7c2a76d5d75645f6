// Fig. 14 (Appx. A) — buffer-offloading RTT stability: 1500 B packets at
// 100 us intervals bounce between two hosts on one ToR (switch -> host ->
// switch turnaround). The paper's libvma implementation keeps 95% of RTTs
// within a 0.75 us band and inter-arrival deviation within +-0.25 us; the
// kernel module baseline is far noisier.
//
// Gates (exit 2 on failure): libvma's 95% band is at most 0.75 us, and the
// kernel's band is over 10x libvma's. The deviation is printed, not gated:
// it reads 0.34 us against the paper's 0.25 us (EXPERIMENTS.md).
#include <cmath>
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "core/network.h"
#include "transport/udp_probe.h"

using namespace oo;
using namespace oo::literals;

namespace {

// Returns the 95% band as printed.
double run(const char* label, core::HostStack stack) {
  core::NetworkConfig cfg;
  cfg.num_tors = 2;
  cfg.hosts_per_tor = 2;
  cfg.calendar_mode = false;
  cfg.host_stack = stack;
  optics::Schedule sched(2, 1, 1, SimTime::seconds(3600));
  core::Network net(cfg, sched, optics::ocs_emulated());
  net.start();

  // Hosts 0 and 1 hang off ToR 0: the probe path is exactly the offload
  // path's host turnaround (down-link, stack, up-link) twice.
  transport::UdpProbe probe(net, 0, 1, 100_us, 1500);

  net.host(0).bind_default([](core::Packet&&) {});
  probe.start();
  net.sim().run_until(500_ms);
  probe.stop();

  const auto& rtt = probe.rtts_us();
  const double band95 = rtt.percentile(97.5) - rtt.percentile(2.5);
  std::printf("  %-22s n=%5zu  median=%7.2fus  95%%-band=%6.2fus  "
              "max=%8.2fus\n",
              label, rtt.count(), rtt.median(), band95, rtt.max());
  // Deviation of each RTT from the median approximates the paper's
  // "distance to the 100 us interval" metric (fixed send cadence).
  std::printf("    p95 |rtt - median| = %.2f us\n",
              std::max(rtt.percentile(97.5) - rtt.median(),
                       rtt.median() - rtt.percentile(2.5)));
  return bench::printed(band95, 2);
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 14: offload host turnaround RTT stability (1500 B @ 100 us)",
      "libvma: 95% of RTTs within ~0.75 us variance, deviation within "
      "+-0.25 us of the interval; kernel baseline much worse");
  const double vma_band = run("libvma", core::HostStack::Libvma);
  const double kernel_band = run("kernel", core::HostStack::Kernel);
  bench::Gate gate;
  gate.check(vma_band <= 0.75, "libvma's 95%% band is %.2f us (over 0.75)",
             vma_band);
  gate.check(kernel_band > 10 * vma_band,
             "the kernel's 95%% band is not over 10x libvma's");
  return gate.finish("fig 14 bench passed");
}
