// Ablation: the congestion-response choice (§5.2 — OpenOptics detects,
// the architecture chooses drop / defer / trim). The same overloaded rotor
// under each response, plus trim paired with its NACK-driven transport
// (the pairing Opera assumes). Shows why the response is an architecture
// decision, not a framework one.
//
// Gates (exit 2 on failure): every row finishes all transfers; trim + NACK
// has the lowest p99 and drops nothing; defer drops fewer than drop.
#include <cstdio>
#include <memory>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "transport/flow_transfer.h"
#include "transport/trim_retx.h"
#include "workload/transfer_pool.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Row {
  double done_pct;
  double p50_ms;
  double p99_ms;
  std::int64_t drops;
};

Row run(core::CongestionResponse response, bool nack_transport) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.bw = 10e9;
  p.uplinks = 1;
  p.slice = 100_us;
  p.queue_capacity = 256 << 10;  // shallow queues: overload must hurt
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  auto& cfg = const_cast<core::NetworkConfig&>(inst.net->config());
  cfg.congestion_response = response;

  // 32 concurrent 1 MB transfers hammering one destination.
  PercentileSampler fct_ms;
  int done = 0;
  const int kFlows = 32;
  std::vector<std::unique_ptr<transport::TrimRetxTransfer>> nack_xfers;
  workload::TransferPool pool(*inst.net);
  for (int i = 0; i < kFlows; ++i) {
    const HostId src = static_cast<HostId>(1 + (i % 7));
    if (nack_transport) {
      transport::FlowTransferConfig tc;
      tc.window = 64;
      nack_xfers.push_back(std::make_unique<transport::TrimRetxTransfer>(
          *inst.net, src, 0, 1 << 20, tc,
          [&](SimTime fct, std::int64_t) {
            ++done;
            fct_ms.add(fct.ms());
          }));
      nack_xfers.back()->start();
    } else {
      pool.launch(src, 0, 1 << 20, {},
                  [&](SimTime fct, std::int64_t) {
                    ++done;
                    fct_ms.add(fct.ms());
                  });
    }
  }
  inst.run_for(400_ms);
  const auto t = inst.net->totals();
  return Row{100.0 * done / kFlows, fct_ms.percentile(50),
             fct_ms.percentile(99), t.congestion_drops};
}

void print(const char* label, const Row& r) {
  std::printf("  %-24s done=%5.1f%%  p50=%7.1fms  p99=%7.1fms  drops=%lld\n",
              label, r.done_pct, r.p50_ms, r.p99_ms,
              static_cast<long long>(r.drops));
}

}  // namespace

int main() {
  bench::banner(
      "Ablation: congestion response under incast overload (32x1MB -> one "
      "host, shallow queues)",
      "drop: loss + timeout-bound tails; defer: fewer losses, misses absorbed "
      "by later slices; trim alone: headers survive but recovery is "
      "RTO-bound; trim + NACK transport: prompt recovery (Opera's pairing)");

  const Row drop = run(core::CongestionResponse::Drop, false);
  print("drop", drop);
  const Row defer = run(core::CongestionResponse::Defer, false);
  print("defer", defer);
  const Row trim = run(core::CongestionResponse::Trim, false);
  print("trim (RTO transport)", trim);
  const Row nack = run(core::CongestionResponse::Trim, true);
  print("trim + NACK transport", nack);

  bench::Gate gate;
  const auto p99 = [](const Row& r) { return bench::printed(r.p99_ms, 1); };
  for (const Row* r : {&drop, &defer, &trim, &nack}) {
    gate.check(bench::printed(r->done_pct, 1) == 100.0,
               "a row finished %.1f%% of its transfers", r->done_pct);
  }
  gate.check(p99(nack) < p99(drop) && p99(nack) < p99(defer) &&
                 p99(nack) < p99(trim),
             "trim + NACK does not have the lowest p99");
  gate.check(nack.drops == 0, "trim + NACK dropped %lld packets",
             static_cast<long long>(nack.drops));
  gate.check(defer.drops < drop.drops, "defer does not drop fewer than drop");
  return gate.finish("congestion response ablation bench passed");
}
