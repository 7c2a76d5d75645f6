// Quickstart: bring up a RotorNet-style optical DCN in a few lines — the
// OpenOptics workflow of Fig. 5a. A rotor schedule is deployed, VLB routing
// compiled into time-flow tables, and a latency-sensitive KV workload
// measures flow completion times across the reconfiguring fabric. The run
// is traced and watched by the invariant monitor and the health scanner,
// none of which changes its results.
#include <cstdio>
#include <string>

#include "api/openoptics.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "workload/kv.h"

using namespace oo;
using namespace oo::literals;

int main() {
  // Static configuration (§4.1) — normally a JSON file on disk.
  const char* config_json = R"({
    "node_num": 8,
    "hosts_per_node": 1,
    "uplink": 1,
    "bw_gbps": 100.0,
    "slice_us": 100.0,
    "ocs": "emulated",
    "calendar": true
  })";

  auto net = api::Net::from_json(config_json);
  net.enable_tracing();

  // Topology: single-dimension round-robin rotor schedule (RotorNet).
  auto circuits = topo::round_robin_1d(8, 1);
  const SliceId period = topo::round_robin_period(8);
  if (!net.deploy_topo(circuits, period)) {
    std::fprintf(stderr, "deploy_topo failed: %s\n", net.last_error().c_str());
    return 1;
  }
  std::printf("deployed: %s\n", net.schedule().summary().c_str());
  net.enable_invariants();
  net.enable_health_scanner();

  // Routing: VLB with per-hop lookup and packet-level multipath (Fig. 5a).
  auto paths = routing::vlb(net.schedule());
  if (!net.deploy_routing(paths, api::Lookup::PerHop,
                          api::Multipath::PerPacket)) {
    std::fprintf(stderr, "deploy_routing failed: %s\n",
                 net.last_error().c_str());
    return 1;
  }
  std::printf("routing: %zu paths compiled into time-flow tables\n",
              paths.size());

  // Workload: memcached-style SETs from 7 clients to 1 server.
  std::vector<HostId> clients;
  for (HostId h = 1; h < 8; ++h) clients.push_back(h);
  workload::KvWorkload kv(net.network(), /*server=*/0, clients,
                          /*mean_interval=*/2_ms);
  kv.start();
  net.run_for(200_ms);
  kv.stop();

  const auto& fct = kv.fct_us();
  std::printf("\nKV SET flow completion times over RotorNet+VLB:\n");
  std::printf("  ops=%lld  p50=%.1fus  p90=%.1fus  p99=%.1fus  max=%.1fus\n",
              static_cast<long long>(kv.ops_completed()), fct.percentile(50),
              fct.percentile(90), fct.percentile(99), fct.max());

  const auto totals = net.network().totals();
  std::printf(
      "network: delivered=%lld fabric_drops=%lld congestion_drops=%lld "
      "no_route=%lld\n",
      static_cast<long long>(totals.delivered),
      static_cast<long long>(totals.fabric_drops),
      static_cast<long long>(totals.congestion_drops),
      static_cast<long long>(totals.no_route_drops));

  const std::string violations = net.check_invariants();
  std::printf("trace events=%lld invariants=%s suspects=%lld\n",
              static_cast<long long>(net.recorder()->total_recorded()),
              violations.empty() ? "ok" : violations.c_str(),
              static_cast<long long>(net.health_scanner()->suspects()));
  if (!violations.empty()) return 3;
  return totals.delivered > 0 ? 0 : 2;
}
