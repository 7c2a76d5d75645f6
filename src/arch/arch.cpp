#include "arch/arch.h"

#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "topo/bvn.h"
#include "topo/jupiter.h"
#include "topo/matching.h"
#include "topo/round_robin.h"
#include "topo/sorn.h"

namespace oo::arch {

using core::LookupMode;
using core::MultipathMode;
using core::NetworkConfig;

namespace {

// A "forever" slice for TA topology instances: circuits are continuous, so
// one slice outlives any simulation horizon.
constexpr SimTime kStaticSlice = SimTime::seconds(3600);

// The presets validate with exceptions, not asserts: release builds define
// NDEBUG, and a bad shape must fail when it is built, never mid-run.
[[noreturn]] void reject(const std::string& preset, const std::string& what) {
  throw std::invalid_argument("arch " + preset + ": " + what);
}

optics::Schedule compile(const std::string& preset, int tors, int uplinks,
                         SliceId period, SimTime slice,
                         const std::vector<optics::Circuit>& circuits) {
  optics::Schedule sched(tors, uplinks, period, slice);
  for (const auto& c : circuits) {
    if (!sched.add_circuit(c)) {
      reject(preset, "infeasible circuit " + std::to_string(c.a) + ":" +
                         std::to_string(c.a_port) + " <-> " +
                         std::to_string(c.b) + ":" + std::to_string(c.b_port) +
                         " in slice " + std::to_string(c.slice) +
                         " for tors=" + std::to_string(tors) +
                         " uplinks=" + std::to_string(uplinks));
    }
  }
  return sched;
}

void check_even_tors(const std::string& preset, const Params& p) {
  if (p.tors % 2 != 0) {
    reject(preset, "tors must be even for a round-robin rotor schedule, got " +
                       std::to_string(p.tors));
  }
}

// A 1-D rotor of N ToRs cycles through N - 1 matchings, and each uplink is
// phase-shifted by a share of that cycle: an uplink beyond N - 1 repeats
// another uplink's circuits.
void check_rotor_uplinks(const std::string& preset, int tors, int uplinks) {
  if (uplinks > tors - 1) {
    reject(preset, "uplinks must be <= tors - 1 = " +
                       std::to_string(tors - 1) +
                       " (the rotor's matchings), got " +
                       std::to_string(uplinks));
  }
}

// The preset's base routing must install on the schedule it just built.
void require_routing(const std::string& preset, const Instance& inst,
                     const Params& p, bool ok) {
  if (!ok) {
    reject(preset, "base routing rejected for tors=" + std::to_string(p.tors) +
                       " uplinks=" + std::to_string(p.uplinks) + ": " +
                       inst.ctl->last_error());
  }
}

Instance build(std::string name, NetworkConfig cfg, optics::Schedule sched,
               optics::OcsProfile profile) {
  // The guardband must cover the device's retargeting window (§7); presets
  // size it automatically from the OCS profile.
  cfg.guardband = std::max(cfg.guardband, profile.reconfig_delay);
  Instance inst;
  inst.name = std::move(name);
  inst.net = std::make_unique<core::Network>(cfg, std::move(sched),
                                             std::move(profile));
  inst.ctl = std::make_unique<core::Controller>(*inst.net);
  return inst;
}

// All nodes reachable from node 0 over the static (slice-0) circuits.
bool connected(const optics::Schedule& sched) {
  const int n = sched.num_nodes();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  int count = 1;
  while (!q.empty()) {
    const NodeId m = q.front();
    q.pop();
    for (const auto& [v, port] : sched.neighbors(m, 0)) {
      (void)port;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        ++count;
        q.push(v);
      }
    }
  }
  return count == n;
}

NetworkConfig base_config(const std::string& preset, const Params& p) {
  if (p.tors < 2) {
    reject(preset, "tors must be >= 2, got " + std::to_string(p.tors));
  }
  if (p.hosts_per_tor < 1) {
    reject(preset, "hosts_per_tor must be >= 1, got " +
                       std::to_string(p.hosts_per_tor));
  }
  if (p.uplinks < 1) {
    reject(preset, "uplinks must be >= 1, got " + std::to_string(p.uplinks));
  }
  NetworkConfig cfg;
  cfg.num_tors = p.tors;
  cfg.hosts_per_tor = p.hosts_per_tor;
  cfg.optical_bw = p.bw;
  cfg.host_bw = p.bw;
  cfg.seed = p.seed;
  cfg.host_stack = p.host_stack;
  cfg.offload = p.offload;
  cfg.calendar_queues = p.calendar_queues;
  if (p.guardband > SimTime::zero()) cfg.guardband = p.guardband;
  if (p.queue_capacity > 0) cfg.queue_capacity = p.queue_capacity;
  cfg.shards = p.shards;
  return cfg;
}

}  // namespace

Instance make_clos(const Params& p) {
  NetworkConfig cfg = base_config("clos", p);
  cfg.calendar_mode = false;
  cfg.electrical_bw = p.electrical_bw;
  auto inst = build("clos", cfg,
                    optics::Schedule(p.tors, 1, 1, kStaticSlice),
                    optics::ocs_emulated());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) { routing::electrical_default(p.tors, sink); },
      LookupMode::PerHop, MultipathMode::None);
  require_routing("clos", inst, p, ok);
  inst.net->start();
  return inst;
}

Instance make_cthrough(const Params& p) {
  NetworkConfig cfg = base_config("c-through", p);
  cfg.calendar_mode = false;
  // The parallel electrical network is rate-limited to 10 Gbps for
  // consistency with the original design (§6 Case I).
  cfg.electrical_bw = 10e9;
  auto inst = build("c-through", cfg,
                    optics::Schedule(p.tors, p.uplinks, 1, kStaticSlice),
                    optics::ocs_mems());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) { routing::electrical_default(p.tors, sink); },
      LookupMode::PerHop, MultipathMode::None);
  require_routing("c-through", inst, p, ok);

  // Host-side elephant steering over direct circuits (flow aging, §5.2).
  inst.steering = std::make_shared<services::HybridSteering>(
      *inst.net, /*elephant_bytes=*/256 << 10, /*idle_reset=*/
      SimTime::millis(50));
  for (HostId h = 0; h < inst.net->num_hosts(); ++h) {
    auto& host = inst.net->host(h);
    auto steering = inst.steering;
    const NodeId tor = host.tor();
    host.set_send_hook([steering, tor](core::Packet& pkt) {
      steering->prepare(pkt, tor);
    });
  }

  // Control loop: TM -> Edmonds matching -> MEMS reconfiguration.
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();
  const double circuit_capacity =
      p.bw / kBitsPerByte * p.collect_interval.sec();
  const int uplinks = p.uplinks;
  const SimTime delay = p.reconfig_delay;
  inst.collector = std::make_unique<services::Collector>(
      *net, p.collect_interval,
      [ctl, uplinks, circuit_capacity, delay](const topo::TrafficMatrix& tm) {
        if (tm.total() <= 0) return;
        ctl->deploy_topo(topo::edmonds(tm, uplinks, circuit_capacity), 1,
                         delay);
      });
  inst.collector->start();
  inst.net->start();
  return inst;
}

Instance make_jupiter(const Params& p) {
  const int uplinks = std::max(3, p.uplinks);  // mesh connectivity
  NetworkConfig cfg = base_config("jupiter", p);
  cfg.calendar_mode = false;
  auto mesh = topo::jupiter(topo::TrafficMatrix{}, p.tors, uplinks);
  auto sched = compile("jupiter", p.tors, uplinks, 1, kStaticSlice, mesh);
  auto inst =
      build("jupiter", cfg, sched, optics::ocs_mems());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) { routing::wcmp(sched, sink); },
      LookupMode::PerHop, MultipathMode::PerFlow);
  require_routing("jupiter", inst, p, ok);

  // Gradual evolution: new WCMP routes overlay at higher priority before
  // the topology swap (make-before-break, Fig. 5b).
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();
  auto prev = std::make_shared<std::vector<optics::Circuit>>(mesh);
  auto prio = std::make_shared<int>(0);
  const SimTime delay = p.reconfig_delay;
  const int tors = p.tors;
  inst.collector = std::make_unique<services::Collector>(
      *net, p.collect_interval,
      [net, ctl, prev, prio, uplinks, delay,
       tors](const topo::TrafficMatrix& tm) {
        if (tm.total() <= 0) return;
        auto circuits = topo::jupiter(tm, tors, uplinks, *prev);
        optics::Schedule next;
        if (!ctl->compile_schedule(circuits, 1, next)) return;
        // Production fabrics never deploy a partitioning topology; keep the
        // incumbent if the optimizer ever proposes one.
        if (!connected(next)) return;
        ctl->deploy_routing(
            [&](core::PathSink sink) { routing::wcmp(next, sink); },
            LookupMode::PerHop, MultipathMode::PerFlow, ++*prio, &next);
        ctl->deploy_topo(circuits, 1, delay);
        *prev = std::move(circuits);
        (void)net;
      });
  inst.collector->start();
  inst.net->start();
  return inst;
}

Instance make_mordia(const Params& p) {
  NetworkConfig cfg = base_config("mordia", p);
  cfg.calendar_mode = true;
  cfg.congestion_response = core::CongestionResponse::Defer;
  const SliceId period = static_cast<SliceId>(p.tors - 1);
  cfg.calendar_queues = 0;  // match period
  NetworkConfig mcfg = cfg;

  // Cold start: uniform demand decomposes to a round-robin-like schedule.
  topo::TrafficMatrix uniform(p.tors);
  for (int i = 0; i < p.tors; ++i)
    for (int j = 0; j < p.tors; ++j)
      if (i != j) uniform.at(i, j) = 1.0;
  auto circuits = topo::bvn(uniform, period);
  auto sched = compile("mordia", p.tors, 1, period, p.slice, circuits);
  auto inst = build("mordia", mcfg, sched, optics::ocs_liquid_crystal());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) { routing::direct_to(sched, sink); },
      LookupMode::PerHop, MultipathMode::None);
  require_routing("mordia", inst, p, ok);

  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();
  inst.collector = std::make_unique<services::Collector>(
      *net, p.collect_interval, [ctl, period](const topo::TrafficMatrix& tm) {
        if (tm.total() <= 0) return;
        auto next_circuits = topo::bvn(tm, period);
        optics::Schedule next;
        if (!ctl->compile_schedule(next_circuits, period, next)) return;
        // The schedule is rebuilt from scratch each interval, so routing
        // state is replaced rather than overlaid (stale entries would point
        // at circuits that no longer exist in any slice).
        ctl->clear_routing();
        ctl->deploy_routing(
            [&](core::PathSink sink) { routing::direct_to(next, sink); },
            LookupMode::PerHop, MultipathMode::None, 0, &next);
        ctl->deploy_topo(next_circuits, period, SimTime::micros(12));
      });
  inst.collector->start();
  inst.net->start();
  return inst;
}

Instance make_rotornet(const Params& p, RotorRouting routing_kind,
                       bool hybrid_electrical) {
  std::string name = "rotornet";
  switch (routing_kind) {
    case RotorRouting::Vlb: name += "-vlb"; break;
    case RotorRouting::Direct: name += "-direct"; break;
    case RotorRouting::Ucmp: name += "-ucmp"; break;
    case RotorRouting::Hoho: name += "-hoho"; break;
  }
  if (hybrid_electrical) name += "-hybrid";
  NetworkConfig cfg = base_config(name, p);
  check_even_tors(name, p);
  check_rotor_uplinks(name, p.tors, p.uplinks);
  cfg.calendar_mode = true;
  if (hybrid_electrical) cfg.electrical_bw = 10e9;
  const SliceId period = topo::round_robin_period(p.tors);
  auto circuits = topo::round_robin_1d(p.tors, p.uplinks);
  auto sched = compile(name, p.tors, p.uplinks, period, p.slice, circuits);

  LookupMode lookup = LookupMode::PerHop;
  MultipathMode mp = MultipathMode::None;
  switch (routing_kind) {
    case RotorRouting::Vlb:
      mp = MultipathMode::PerPacket;
      cfg.congestion_response = core::CongestionResponse::Drop;
      break;
    case RotorRouting::Direct:
      cfg.congestion_response = core::CongestionResponse::Drop;
      break;
    case RotorRouting::Ucmp:
      lookup = LookupMode::SourceRouting;
      mp = MultipathMode::PerPacket;
      cfg.congestion_response = core::CongestionResponse::Defer;
      break;
    case RotorRouting::Hoho:
      cfg.congestion_response = core::CongestionResponse::Defer;
      break;
  }
  if (hybrid_electrical) mp = MultipathMode::PerPacket;
  auto paths = [&](core::PathSink sink) {
    bool more = true;
    switch (routing_kind) {
      case RotorRouting::Vlb: more = routing::vlb(sched, sink); break;
      case RotorRouting::Direct:
        // Hybrid merges per-slice electrical alternatives into the optical
        // entries by TFT key below — that needs the expanded per-slice
        // form.
        more = hybrid_electrical ? routing::direct_to_expanded(sched, sink)
                                 : routing::direct_to(sched, sink);
        break;
      case RotorRouting::Ucmp: more = routing::ucmp(sched, sink); break;
      case RotorRouting::Hoho: more = routing::hoho(sched, sink); break;
    }
    if (!more || !hybrid_electrical) return;
    // Per-slice electrical alternatives merge into the optical entries as
    // bandwidth-weighted multipath (TDTCP-style hybrid).
    core::Path ep;
    ep.weight = cfg.electrical_bw / p.bw;
    ep.hops.resize(1);
    for (NodeId n = 0; n < p.tors; ++n) {
      for (NodeId d = 0; d < p.tors; ++d) {
        if (n == d) continue;
        for (SliceId s = 0; s < period; ++s) {
          ep.dst = d;
          ep.start_slice = s;
          ep.hops[0] = core::PathHop{n, core::kElectricalEgress, kAnySlice};
          if (!sink(ep)) return;
        }
      }
    }
  };

  auto inst = build(name, cfg, sched, optics::ocs_emulated());
  const bool ok = inst.ctl->deploy_routing(paths, lookup, mp);
  require_routing(name, inst, p, ok);
  inst.net->start();
  return inst;
}

Instance make_opera(const Params& p, bool bulk) {
  const std::string name = bulk ? "opera-bulk" : "opera";
  NetworkConfig cfg = base_config(name, p);
  check_even_tors(name, p);
  cfg.calendar_mode = true;
  // Mice plane: Opera trims payloads on congestion; bulk plane: packets
  // that miss their circuit defer to the next one (Opera's bulk traffic is
  // retransmitted promptly on trim — deferral approximates that without a
  // receiver-driven loss recovery stack).
  cfg.congestion_response = bulk ? core::CongestionResponse::Defer
                                 : core::CongestionResponse::Trim;
  const int uplinks = std::max(2, p.uplinks);
  check_rotor_uplinks(name, p.tors, uplinks);
  const SliceId period = topo::round_robin_period(p.tors);
  auto circuits = topo::round_robin_1d(p.tors, uplinks);
  auto sched = compile(name, p.tors, uplinks, period, p.slice, circuits);
  auto inst = build(name, cfg, sched, optics::ocs_emulated());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) {
        bulk ? routing::direct_to(sched, sink) : routing::opera(sched, sink);
      },
      LookupMode::PerHop, MultipathMode::None);
  require_routing(name, inst, p, ok);
  inst.net->start();
  return inst;
}

Instance make_semi_oblivious(const Params& p) {
  NetworkConfig cfg = base_config("semi-oblivious", p);
  check_even_tors("semi-oblivious", p);
  cfg.calendar_mode = true;
  const SliceId period = topo::round_robin_period(p.tors);
  auto circuits = topo::round_robin_1d(p.tors, 1);
  auto sched = compile("semi-oblivious", p.tors, 1, period, p.slice, circuits);
  auto inst = build("semi-oblivious", cfg, sched, optics::ocs_emulated());
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) { routing::vlb(sched, sink); },
      LookupMode::PerHop, MultipathMode::PerPacket);
  require_routing("semi-oblivious", inst, p, ok);

  // Every collection interval the optical schedule itself is re-skewed
  // toward the observed demand — a TA-style decision deploying a TO-style
  // batch of topologies (§4.3).
  auto* ctl = inst.ctl.get();
  auto prio = std::make_shared<int>(0);
  const int tors = p.tors;
  inst.collector = std::make_unique<services::Collector>(
      *inst.net, p.collect_interval,
      [ctl, prio, tors, period](const topo::TrafficMatrix& tm) {
        if (tm.total() <= 0) return;
        auto next_circuits = topo::sorn(tm, tors, period);
        optics::Schedule next;
        if (!ctl->compile_schedule(next_circuits, period, next)) return;
        ctl->deploy_routing(
            [&](core::PathSink sink) { routing::vlb(next, sink); },
            LookupMode::PerHop, MultipathMode::PerPacket, ++*prio, &next);
        ctl->deploy_topo(next_circuits, period, SimTime::micros(20));
      });
  inst.collector->start();
  inst.net->start();
  return inst;
}

Instance make_shale(const Params& p, int dimension) {
  NetworkConfig cfg = base_config("shale", p);
  // The grid schedule pairs nodes along each of `dimension` axes, so it
  // needs tors = side^dimension with an even side.
  const auto side =
      std::llround(std::pow(static_cast<double>(p.tors),
                            1.0 / static_cast<double>(std::max(dimension, 1))));
  std::int64_t grid = 1;
  for (int d = 0; d < dimension && grid <= p.tors; ++d) grid *= side;
  if (grid != p.tors || side % 2 != 0) {
    reject("shale", "tors must be side^dimension with an even side, got tors=" +
                        std::to_string(p.tors) +
                        " dimension=" + std::to_string(dimension));
  }
  cfg.calendar_mode = true;
  cfg.congestion_response = core::CongestionResponse::Defer;
  const SliceId period = topo::round_robin_period(p.tors, dimension);
  auto circuits = topo::round_robin_nd(p.tors, dimension);
  auto sched = compile("shale", p.tors, 1, period, p.slice, circuits);
  auto inst = build("shale", cfg, sched, optics::ocs_emulated());
  // Dimension-ordered tours: one fabric hop per grid dimension suffices to
  // reach any coordinate; the time-expanded search finds the fastest
  // interleaving with the slice rotation.
  const bool ok = inst.ctl->deploy_routing(
      [&](core::PathSink sink) {
        routing::hoho(sched, sink, /*max_hops=*/2 * dimension);
      },
      LookupMode::PerHop, MultipathMode::None);
  require_routing("shale", inst, p, ok);
  inst.net->start();
  return inst;
}

}  // namespace oo::arch
