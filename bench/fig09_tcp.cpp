// Fig. 9 — Case II: transport-layer investigation. Long-lived TCP flows on
// Clos, RotorNet with direct-circuit routing (host flow pausing), RotorNet
// with VLB, and hybrid RotorNet (100G optical + 10G electrical), with the
// dupack threshold at the default 3 and raised to 5.
//
// The direct/hybrid rows use the paper's 50%-duty configuration: a 2-slice
// schedule where the measured pair's circuit is up every other slice.
//
// Gates (exit 2 on failure), at both dupack thresholds: Clos reaches 40 G;
// direct has no reordering and a goodput between VLB's and Clos's; reTCP
// beats the plain hybrid. At dupack 3, TDTCP's reorder events stay under
// 10% of the plain hybrid's.
#include <cstdio>
#include <memory>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "services/circuit_gate.h"
#include "transport/tcp_lite.h"
#include "transport/tdtcp.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Result {
  double gbps;
  std::int64_t reorders;
  std::int64_t fast_retx;
};

void row(const char* label, const Result& r) {
  std::printf("  %-28s %7.1f Gbps   reorder events=%6lld   fast-retx=%4lld\n",
              label, r.gbps, static_cast<long long>(r.reorders),
              static_cast<long long>(r.fast_retx));
}

Result measure(core::Network& net, int dupack, HostId src, HostId dst,
               SimTime horizon) {
  transport::TcpConfig cfg;
  cfg.dupack_threshold = dupack;
  cfg.app_rate_cap = 40e9;  // iperf3 is CPU-bound at ~40 Gbps (§6)
  transport::TcpLite tcp(net, src, dst, cfg);
  tcp.start();
  net.sim().run_until(net.sim().now() + horizon);
  return Result{tcp.goodput_bps() / 1e9, tcp.reorder_events(),
                tcp.fast_retransmits()};
}

// 4 ToRs, 2-slice schedule: the 0<->2 circuit is up in slice 0 only (50%
// duty), the complementary matching in slice 1.
std::unique_ptr<core::Network> make_half_duty(bool hybrid) {
  core::NetworkConfig cfg;
  cfg.num_tors = 4;
  cfg.calendar_mode = true;
  // Tiny vma segment queue: the application blocks almost immediately when
  // its circuit is down and does not "catch up" afterwards (CPU-bound
  // iperf) — the paper's duty-cycle-proportional throughput.
  cfg.host_segment_queue = 64 << 10;
  // Four calendar days over a 2-slice cycle (a multiple of the period keeps
  // queue->slice mapping consistent): packets that cannot fit in the
  // closing window defer a full cycle instead of dropping.
  cfg.calendar_queues = 4;
  cfg.congestion_response = core::CongestionResponse::Defer;
  if (hybrid) cfg.electrical_bw = 10e9;
  optics::Schedule sched(4, 1, 2, 100_us);
  sched.add_circuit({0, 0, 2, 0, 0});
  sched.add_circuit({1, 0, 3, 0, 0});
  sched.add_circuit({0, 0, 3, 0, 1});
  sched.add_circuit({1, 0, 2, 0, 1});
  auto net = std::make_unique<core::Network>(cfg, sched,
                                             optics::ocs_emulated());
  core::Controller ctl(*net);
  std::vector<core::Path> paths;
  if (!hybrid) {
    paths = routing::direct_to(sched);
  } else {
    // TDTCP-style time division: ride the 100G circuit while it is up,
    // fall back to the 10G electrical fabric in the other slices. The
    // reordering Fig. 9(b) counts comes from slow electrical stragglers
    // being overtaken at each transition.
    for (NodeId n = 0; n < 4; ++n) {
      for (NodeId d = 0; d < 4; ++d) {
        if (n == d) continue;
        for (SliceId s = 0; s < 2; ++s) {
          core::Path p;
          p.dst = d;
          p.start_slice = s;
          bool live = false;
          for (PortId u = 0; u < sched.uplinks(); ++u) {
            if (auto peer = sched.peer(n, u, s); peer && peer->node == d) {
              p.hops.push_back(core::PathHop{n, u, s});
              live = true;
              break;
            }
          }
          if (!live) {
            p.hops.push_back(
                core::PathHop{n, core::kElectricalEgress, kAnySlice});
          }
          paths.push_back(std::move(p));
        }
      }
    }
  }
  const bool ok = ctl.deploy_routing(paths, core::LookupMode::PerHop,
                                     core::MultipathMode::None);
  if (!ok) std::fprintf(stderr, "deploy failed: %s\n", ctl.last_error().c_str());
  net->start();
  return net;
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 9: TCP throughput and packet reordering (iperf-style flows)",
      "Clos ~40G (CPU bound); direct ~half (50% duty) with no reordering; "
      "VLB low with heavy reordering; hybrid below direct at dupack=3, "
      "recovers toward ~25G with dupack=5 as reordering is masked");

  bench::Gate claims;
  for (int dupack : {3, 5}) {
    std::printf("--- dupack threshold = %d ---\n", dupack);
    Result clos{}, direct{}, vlb{}, hybrid{}, retcp{}, tdtcp{};
    {
      arch::Params p;
      p.tors = 4;
      auto inst = arch::make_clos(p);
      clos = measure(*inst.net, dupack, 0, 2, 60_ms);
      row("clos", clos);
    }
    {
      auto net = make_half_duty(false);
      services::CircuitGate gate(*net);
      gate.gate(0, 2);
      gate.start();
      direct = measure(*net, dupack, 0, 2, 60_ms);
      row("rotornet-direct (paused)", direct);
    }
    {
      arch::Params p;
      p.tors = 8;
      p.slice = 100_us;
      auto inst = arch::make_rotornet(p, arch::RotorRouting::Vlb);
      vlb = measure(*inst.net, dupack, 0, 4, 60_ms);
      row("rotornet-vlb", vlb);
    }
    {
      auto net = make_half_duty(true);
      hybrid = measure(*net, dupack, 0, 2, 60_ms);
      row("rotornet-hybrid (100G+10G)", hybrid);
    }
    {
      // reTCP on the same hybrid: cwnd rescaled by the 10x bandwidth ratio
      // at each reconfiguration instead of re-converging.
      auto net = make_half_duty(true);
      transport::TcpConfig cfg;
      cfg.dupack_threshold = dupack;
      cfg.app_rate_cap = 40e9;
      cfg.retcp_bandwidth_ratio = 10.0;
      transport::TcpLite tcp(*net, 0, 2, cfg);
      tcp.start();
      net->sim().run_until(net->sim().now() + SimTime::millis(60));
      retcp = Result{tcp.goodput_bps() / 1e9, tcp.reorder_events(),
                     tcp.fast_retransmits()};
      row("rotornet-hybrid + reTCP", retcp);
    }
    {
      // TDTCP-lite on the same hybrid: per-phase congestion windows keep
      // the fast optical phase's window intact when electrical stragglers
      // trigger retransmits (the transport-research use case of §6).
      auto net = make_half_duty(true);
      transport::TcpConfig cfg;
      cfg.dupack_threshold = dupack;
      cfg.app_rate_cap = 40e9;
      cfg.init_cwnd = 32;  // phases ramp independently; start them warm
      transport::TdtcpLite tcp(*net, 0, 2, cfg);
      tcp.start();
      net->sim().run_until(net->sim().now() + SimTime::millis(60));
      tdtcp = Result{tcp.goodput_bps() / 1e9, tcp.reorder_events(),
                     tcp.fast_retransmits()};
      row("rotornet-hybrid + TDTCP", tdtcp);
    }
    const auto gbps = [](const Result& r) { return bench::printed(r.gbps, 1); };
    claims.check(gbps(clos) >= 40.0, "dupack %d: Clos below 40.0 G", dupack);
    claims.check(direct.reorders == 0,
                 "dupack %d: direct (paused) reordered %lld times", dupack,
                 static_cast<long long>(direct.reorders));
    claims.check(gbps(vlb) < gbps(direct) && gbps(direct) < gbps(clos),
                 "dupack %d: direct's goodput is not between VLB's and "
                 "Clos's", dupack);
    claims.check(gbps(retcp) > gbps(hybrid),
                 "dupack %d: reTCP does not beat the plain hybrid", dupack);
    claims.check(dupack != 3 || tdtcp.reorders * 10 < hybrid.reorders,
                 "dupack 3: TDTCP's reorder events are not under 10%% of "
                 "the plain hybrid's");
  }
  return claims.finish("fig 9 bench passed");
}
