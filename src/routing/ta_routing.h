// Traffic-aware / static routing (§4.2): classical schemes over a topology
// instance (period-1 schedule, wildcard slices — the time-flow table
// degenerates to a flow table):
//   ecmp  — equal split across shortest-path next-hop neighbors;
//   wcmp  — split across every parallel circuit (capacity-weighted);
//   ksp   — Yen's k-shortest paths, source-routed;
//   electrical_default — one-hop default route over the electrical fabric.
// Each comes in a streamed form (paths handed to `sink` one at a time,
// false when the sink stopped it) and a vector form with the same paths in
// the same order.
#pragma once

#include <vector>

#include "common/ids.h"
#include "core/path.h"
#include "optics/schedule.h"

namespace oo::routing {

bool ecmp(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> ecmp(const optics::Schedule& sched);
bool wcmp(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> wcmp(const optics::Schedule& sched);
bool ksp(const optics::Schedule& sched, core::PathSink sink, int k);
std::vector<core::Path> ksp(const optics::Schedule& sched, int k);

// Default route via the parallel electrical fabric for every (node, dst).
bool electrical_default(int num_nodes, core::PathSink sink);
std::vector<core::Path> electrical_default(int num_nodes);

}  // namespace oo::routing
