// Architecture presets (§6 Case I): each make_* composes the generic
// OpenOptics pieces — a circuit schedule, a routing scheme, calendar or
// flow-table queueing, fabric profiles, and infra services — into a running
// instance of a published optical DCN design. The same building blocks a
// user script would wire by hand (Fig. 5), packaged for the benches.
#pragma once

#include <memory>
#include <string>

#include "core/controller.h"
#include "core/network.h"
#include "services/collector.h"
#include "services/hybrid_steering.h"
#include "topo/traffic_matrix.h"

namespace oo::arch {

struct Params {
  int tors = 8;
  int hosts_per_tor = 1;
  int uplinks = 1;
  SimTime slice = SimTime::micros(100);
  BitsPerSec bw = 100e9;              // optical + host line rate
  BitsPerSec electrical_bw = 100e9;   // where a parallel fabric exists
  std::uint64_t seed = 1;
  // TA control-loop interval (paper values: 24 h Jupiter, seconds
  // c-Through; benches shrink these to simulated-feasible horizons).
  SimTime collect_interval = SimTime::millis(50);
  // MEMS retargeting time for TA reconfigurations.
  SimTime reconfig_delay = SimTime::millis(25);
  // Host stack model (libvma vs kernel, Fig. 13/14).
  core::HostStack host_stack = core::HostStack::Libvma;
  // Buffer offloading (§5.2) and the on-switch calendar horizon (0 = the
  // full schedule period).
  bool offload = false;
  int calendar_queues = 0;
  // Slice guardband override (0 = the derived 200 ns default).
  SimTime guardband = SimTime::zero();
  // Per-calendar-queue byte capacity override (0 = default).
  std::int64_t queue_capacity = 0;
  // Sharded parallel engine workers (0 = legacy single-queue engine,
  // bit-for-bit; >= 1 = windowed lane engine, byte-identical at any
  // count). See src/parallel/sharded.h.
  int shards = 0;
};

struct Instance {
  std::string name;
  std::unique_ptr<core::Network> net;
  std::unique_ptr<core::Controller> ctl;
  // Optional services kept alive with the instance.
  std::shared_ptr<services::HybridSteering> steering;
  std::unique_ptr<services::Collector> collector;

  core::Network& network() { return *net; }
  void run_for(SimTime t) { net->sim().run_until(net->sim().now() + t); }
};

// Traditional folded-Clos baseline: electrical fabric only, default routes.
Instance make_clos(const Params& p);

// c-Through (TA-1): 100G MEMS optical for elephants + rate-limited parallel
// electrical network for mice; flow-aging steering on hosts; Edmonds
// matching control loop at `collect_interval`.
Instance make_cthrough(const Params& p);

// Jupiter (TA-2): OCS mesh, WCMP, gradual topology evolution on collection.
Instance make_jupiter(const Params& p);

// Mordia (TA, slotted): BvN schedule over microsecond slices, circuits on
// demand from the TM, direct-circuit routing with calendar queues.
Instance make_mordia(const Params& p);

// RotorNet / TO family on a 1-D rotor schedule.
enum class RotorRouting { Vlb, Direct, Ucmp, Hoho };
Instance make_rotornet(const Params& p, RotorRouting routing,
                       bool hybrid_electrical = false);

// Opera: multi-uplink rotor with expander (same-slice multi-hop) routing
// and packet trimming on congestion. Opera segregates traffic classes:
// `bulk` selects the direct (wait-for-circuit) plane used for elephants,
// the default the low-latency expander plane used for mice.
Instance make_opera(const Params& p, bool bulk = false);

// Semi-oblivious (TA+TO, §4.3): rotor start, sorn(TM) schedule refresh on
// every collection.
Instance make_semi_oblivious(const Params& p);

// Shale: multi-dimensional rotor (§4.2 round_robin(dimension, uplink)) —
// ToRs form a `dimension`-D grid (tors must be an even-side perfect
// power); slices cycle through per-dimension tournaments; routing is
// earliest-arrival with one hop per dimension of budget.
Instance make_shale(const Params& p, int dimension = 2);

}  // namespace oo::arch
