// Fig. 13 — emulation accuracy: continuous UDP RTT measurement on RotorNet
// (direct-circuit routing), OpenOptics' libvma host stack vs the kernel-UDP
// stack of "Realizing RotorNet". Expect stepped RTT levels from circuit
// waits and a much longer tail on the kernel stack.
//
// Gate (exit 2 on failure): libvma's p50 and p99 are below the kernel's.
#include <cstdio>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "transport/udp_probe.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Rtt {
  double p50_us;
  double p99_us;
};

Rtt run(const char* label, core::HostStack stack) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.slice = 100_us;
  p.host_stack = stack;  // §5 host system: libvma vs kernel path
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);

  transport::UdpProbe probe(*inst.net, 0, 4, /*interval=*/50_us, 1500);
  probe.start();
  inst.run_for(400_ms);
  probe.stop();
  const auto& rtt = probe.rtts_us();
  std::printf("  %-22s n=%5zu  p10=%7.1f p50=%7.1f p90=%7.1f p99=%7.1f "
              "max=%8.1f us\n",
              label, rtt.count(), rtt.percentile(10), rtt.percentile(50),
              rtt.percentile(90), rtt.percentile(99), rtt.max());
  // CDF steps: RTT levels cluster at multiples of the circuit wait.
  std::printf("    cdf:");
  for (const auto& [x, q] : rtt.cdf(9)) {
    std::printf(" (%.0fus,%.2f)", x, q);
  }
  std::printf("\n");
  return Rtt{bench::printed(rtt.percentile(50), 1),
             bench::printed(rtt.percentile(99), 1)};
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 13: UDP RTT on RotorNet — OpenOptics (libvma) vs kernel stack",
      "similar stepped distributions (routing hops/circuit waits); "
      "OpenOptics lower RTTs and no long tail vs the kernel-UDP baseline");
  const Rtt vma = run("openoptics-libvma", core::HostStack::Libvma);
  const Rtt kernel = run("kernel-udp (baseline)", core::HostStack::Kernel);
  bench::Gate gate;
  gate.check(vma.p50_us < kernel.p50_us, "libvma's p50 is not below the "
             "kernel's");
  gate.check(vma.p99_us < kernel.p99_us, "libvma's p99 is not below the "
             "kernel's");
  return gate.finish("fig 13 bench passed");
}
