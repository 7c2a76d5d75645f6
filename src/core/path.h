// Routing path abstraction shared by the routing algorithms (producers) and
// the optical controller (consumer): Path<src, dst, ts> from Tab. 1. A path
// lists, hop by hop, the node, its egress port, and the departure slice.
// deploy_routing() compiles paths into time-flow table entries (per-hop or
// source-routed).
//
// Producers stream: each hands its paths, one at a time and in a fixed
// order, to a PathSink, so a deploy checks and compiles every path as it
// arrives and never holds the whole routing. The vector form of a producer
// collects the same stream.
#pragma once

#include <vector>

#include "common/function_ref.h"
#include "common/ids.h"

namespace oo::core {

struct PathHop {
  NodeId node = kInvalidNode;
  PortId egress = kInvalidPort;   // optical uplink, or kElectricalEgress
  SliceId dep_slice = kAnySlice;  // kAnySlice = forward immediately
};

// Egress pseudo-port for the parallel electrical fabric in hybrid designs.
inline constexpr PortId kElectricalEgress = -2;

struct Path {
  // Matched source; kInvalidNode = any source (the compiled first-hop entry
  // gets a source wildcard — standard for ECMP/WCMP-style tables).
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  // Arrival slice at src this path serves; kAnySlice for TA/static paths.
  SliceId start_slice = kAnySlice;
  std::vector<PathHop> hops;
  double weight = 1.0;  // relative multipath weight (WCMP/UCMP)

  bool valid() const { return !hops.empty() && dst != kInvalidNode; }
};

// Takes a producer's paths one at a time. The Path is valid only during the
// call: a producer may reuse one Path object for all of its paths, so a
// sink copies whatever it keeps. Returning false stops the producer.
using PathSink = FunctionRef<bool(const Path&)>;

// Runs a producer into the sink it is given.
using PathStream = FunctionRef<void(PathSink)>;

// The stream of a vector's paths, in order.
inline auto stream_of(const std::vector<Path>& paths) {
  return [&paths](PathSink sink) {
    for (const Path& p : paths) {
      if (!sink(p)) return;
    }
  };
}

// Collects a stream into a vector: the vector form of every producer.
inline std::vector<Path> collect(PathStream paths) {
  std::vector<Path> out;
  paths([&out](const Path& p) {
    out.push_back(p);
    return true;
  });
  return out;
}

}  // namespace oo::core
