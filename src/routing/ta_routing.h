// Traffic-aware / static routing (§4.2): classical schemes over a topology
// instance (period-1 schedule, wildcard slices — the time-flow table
// degenerates to a flow table):
//   ecmp  — equal split across shortest-path next-hop neighbors;
//   wcmp  — split across every parallel circuit (capacity-weighted);
//   ksp   — Yen's k-shortest paths, source-routed;
//   electrical_default — one-hop default route over the electrical fabric.
#pragma once

#include <vector>

#include "common/ids.h"
#include "core/path.h"
#include "optics/schedule.h"

namespace oo::routing {

std::vector<core::Path> ecmp(const optics::Schedule& sched);
std::vector<core::Path> wcmp(const optics::Schedule& sched);
std::vector<core::Path> ksp(const optics::Schedule& sched, int k);

// Default route via the parallel electrical fabric for every (node, dst).
std::vector<core::Path> electrical_default(int num_nodes);

}  // namespace oo::routing
