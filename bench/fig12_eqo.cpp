// Fig. 12 — queue-occupancy-estimation accuracy vs update interval. A
// calendar queue is filled by a mix of line-rate and bursty traffic and
// drained at line rate; the ingress-pipeline estimate (incremented on
// enqueue, decremented one line-rate quantum per generator tick) is compared
// against ground truth. The paper reports <725 B error at 50 ns intervals.
//
// Gates (exit 2 on failure): the mean error never falls as the interval
// grows, and the p99.9 error at 50 ns stays under one 1500 B MTU.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/eqo.h"

using namespace oo;
using namespace oo::literals;

int main() {
  bench::banner(
      "Fig. 12: EQO estimation error vs update interval",
      "error shrinks with the interval; 50 ns -> under one MTU (725 B) at "
      "1.3% pipeline overhead (20 Mpps on a 1.5 Bpps pipeline)");

  const BitsPerSec bw = 100e9;
  std::printf("  %-12s %-12s %-12s %-12s %-10s\n", "interval", "mean(B)",
              "p99.9(B)", "max(B)", "pktgen-overhead");
  bench::Gate gate;
  double prev_mean = 0;
  // Intervals chosen so bandwidth x interval is an integer byte quantum at
  // 100 Gbps (hardware programs whole bytes per decrement).
  for (std::int64_t interval_ns : {40, 50, 100, 200, 400, 800}) {
    core::QueueOccupancyEstimator eqo(1, bw, SimTime::nanos(interval_ns));
    Rng rng(42);
    PercentileSampler err;
    std::int64_t truth = 0;
    SimTime last = 0_ns;
    SimTime now = 0_ns;
    // 200k arrival events: line-rate stream with superimposed bursts that
    // periodically fill and drain the queue (the paper's methodology).
    for (int i = 0; i < 200000; ++i) {
      const bool burst = (i / 2000) % 2 == 0;
      const std::int64_t gap =
          burst ? 40 + static_cast<std::int64_t>(rng.uniform(40))
                : 150 + static_cast<std::int64_t>(rng.uniform(100));
      now += SimTime::nanos(gap);
      // Ground truth drains at exact line rate while occupied.
      const std::int64_t drained = bytes_in_ns((now - last).ns(), bw);
      truth = std::max<std::int64_t>(0, truth - drained);
      eqo.drain_window(0, last, now);
      last = now;
      const std::int64_t size = 64 + static_cast<std::int64_t>(rng.uniform(1436));
      truth += size;
      eqo.on_enqueue(0, size);
      err.add(static_cast<double>(eqo.error_vs(0, truth)));
    }
    // Pipeline overhead: one generator packet per interval vs 1.5 Bpps.
    const double pps = 1e9 / static_cast<double>(interval_ns);
    std::printf("  %-12s %-12.0f %-12.0f %-12.0f %6.2f%%\n",
                SimTime::nanos(interval_ns).str().c_str(), err.mean(),
                err.percentile(99.9), err.max(), pps / 1.5e9 * 100.0);
    const double mean = bench::printed(err.mean(), 0);
    gate.check(mean >= prev_mean, "%lld ns: mean error fell as the interval "
               "grew", static_cast<long long>(interval_ns));
    prev_mean = mean;
    gate.check(interval_ns != 50 ||
                   bench::printed(err.percentile(99.9), 0) < 1500,
               "50 ns: p99.9 error is not under one 1500 B MTU");
  }
  return gate.finish("fig 12 bench passed");
}
