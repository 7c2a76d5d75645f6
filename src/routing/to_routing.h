// Traffic-oblivious routing schemes (§4.2 routing() materializations):
//   direct_to — wait for the direct circuit (Fig. 2 path 1);
//   vlb       — RotorNet/Sirius Valiant spraying: one random intermediate
//               hop now, then the direct circuit (Fig. 2 path 2);
//   opera     — multi-hop along the always-connected expander of the
//               current slice (all hops within one slice);
//   ucmp      — uniform-cost multipath over near-earliest-arrival paths,
//               compiled with source routing;
//   hoho      — hop-on hop-off: the single earliest-arrival path, per-hop.
// All functions produce Path sets for deploy_routing() covering every
// (source, destination, arrival slice). Each comes in two forms: the
// streamed form hands its paths to `sink` one at a time (core/path.h) and
// returns false when the sink stopped it; the vector form returns the same
// paths in the same order.
#pragma once

#include <vector>

#include "common/ids.h"
#include "core/path.h"
#include "optics/schedule.h"

namespace oo::routing {

// Direct-circuit routing: hold until the next slice with a direct circuit.
// When a (node, dst) pair has a single live circuit per cycle, its period
// identical per-slice paths collapse to one wildcard-slice path (same TFT
// lookup result, table smaller by a factor of the period).
bool direct_to(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> direct_to(const optics::Schedule& sched);

// direct_to without the wildcard collapse: one path per start slice. Use
// when the caller merges its own per-slice entries into the same TFT keys
// (hybrid electrical alternatives, VLB spray baselines) — a collapsed
// entry is less specific and would stop merging with them.
bool direct_to_expanded(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> direct_to_expanded(const optics::Schedule& sched);

// VLB: direct when a circuit is live this slice; otherwise spray uniformly
// over all uplinks (random intermediate), intermediates hold for the direct
// circuit. Source entries are per-source; transit entries wildcard.
bool vlb(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> vlb(const optics::Schedule& sched);

// Opera-style: shortest path inside the current slice's topology; every
// hop departs in the arrival slice. Per-destination BFS keeps transit
// entries consistent.
bool opera(const optics::Schedule& sched, core::PathSink sink);
std::vector<core::Path> opera(const optics::Schedule& sched);

// UCMP: all first-hop alternatives whose arrival is within `slack` slices
// of the earliest, up to `max_paths`, uniformly weighted; source-routed.
// `max_hops` bounds the tour (unbounded "earliest" paths multiply core
// load by their length).
bool ucmp(const optics::Schedule& sched, core::PathSink sink,
          int max_paths = 4, int slack = 0, int max_hops = 2);
std::vector<core::Path> ucmp(const optics::Schedule& sched, int max_paths = 4,
                             int slack = 0, int max_hops = 2);

// HOHO: earliest arrival within the hop budget, hop-on-eagerly ties;
// per-hop lookup.
bool hoho(const optics::Schedule& sched, core::PathSink sink,
          int max_hops = 2);
std::vector<core::Path> hoho(const optics::Schedule& sched, int max_hops = 2);

}  // namespace oo::routing
