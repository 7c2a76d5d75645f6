// Fig. 11 — queue-management efficiency: ToR-to-ToR delay through the
// emulated (cut-through) optical fabric for different packet sizes, from
// queue-rotation trigger on the sender to Rx at the receiver. The paper
// measures 1287-1324 ns with a 34 ns spread that the guardband must absorb.
//
// Gate (exit 2 on failure): min 1287 ns and max 1324 ns at every size.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "eventsim/simulator.h"
#include "optics/fabric.h"

using namespace oo;
using namespace oo::literals;

int main() {
  bench::banner(
      "Fig. 11: switch-to-switch delay vs packet size",
      "min 1287 ns, max 1324 ns (34 ns spread), size-independent thanks to "
      "cut-through forwarding");

  optics::Schedule sched(2, 1, 1, SimTime::seconds(3600));
  sched.add_circuit({0, 0, 1, 0, kAnySlice});

  std::printf("  %-10s %-10s %-10s %-10s\n", "bytes", "min(ns)", "mean(ns)",
              "max(ns)");
  bench::Gate gate;
  for (std::int64_t size : {64, 256, 512, 1500, 4096, 9000}) {
    sim::Simulator sim;
    optics::OpticalFabric fab(sim, sched, optics::ocs_emulated(), Rng{7});
    RunningStats delay_ns;
    fab.attach(0, [](net::Packet&&, PortId) {});
    fab.attach(1, [&](net::Packet&& p, PortId) {
      // probe_echo carries the launch-trigger timestamp.
      delay_ns.add(static_cast<double>((sim.now() - p.probe_echo).ns()));
    });
    // Line-rate packet train (on-chip packet generator style): the delay is
    // measured from the rotation/launch trigger to Rx MAC arrival.
    for (int i = 0; i < 5000; ++i) {
      sim.schedule_at(SimTime::micros(i), [&, size]() {
        net::Packet p;
        p.size_bytes = size;
        p.probe_echo = sim.now();
        // Cut-through: the fabric latches the header; serialization overlaps
        // with forwarding, so tx_end ~ tx_start at the fabric's view.
        fab.transmit(0, 0, std::move(p), sim.now(), sim.now());
      });
    }
    sim.run();
    std::printf("  %-10lld %-10.0f %-10.1f %-10.0f\n",
                static_cast<long long>(size), delay_ns.min(), delay_ns.mean(),
                delay_ns.max());
    gate.check(bench::printed(delay_ns.min(), 0) == 1287 &&
                   bench::printed(delay_ns.max(), 0) == 1324,
               "%lld B: delay is not 1287-1324 ns",
               static_cast<long long>(size));
  }
  std::printf(
      "\n  spread (max-min) feeds the guardband derivation (see min_slice)\n");
  return gate.finish("fig 11 bench passed");
}
