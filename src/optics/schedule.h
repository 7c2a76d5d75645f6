// Circuit schedule: the compiled form of a topology program. A schedule maps
// (node, optical uplink, time slice) to the peer endpoint it is circuit-
// connected to. TA architectures use single-slice (period 1) schedules with
// wildcard slices — a static topology instance; TO architectures use
// multi-slice rotation schedules (§2.1, §4.2).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace oo::optics {

// connect(Circuit<N1,port1,N2,port2,ts>) — the topology primitive (Tab. 1).
// slice == kAnySlice means the circuit holds in every slice of the cycle.
struct Circuit {
  NodeId a = kInvalidNode;
  PortId a_port = kInvalidPort;
  NodeId b = kInvalidNode;
  PortId b_port = kInvalidPort;
  SliceId slice = kAnySlice;

  bool operator==(const Circuit&) const = default;
};

struct Endpoint {
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;
  bool operator==(const Endpoint&) const = default;
};

class Schedule {
 public:
  // `period` is the number of slices in one optical cycle (1 for TA
  // topology instances). `slice_duration` includes the guardband.
  Schedule(int num_nodes, int uplinks, SliceId period, SimTime slice_duration);
  Schedule() : Schedule(0, 0, 1, SimTime::micros(100)) {}

  int num_nodes() const { return num_nodes_; }
  int uplinks() const { return uplinks_; }
  SliceId period() const { return period_; }
  SimTime slice_duration() const { return slice_duration_; }
  SimTime cycle_duration() const { return slice_duration_ * period_; }

  // Installs a bidirectional circuit; rejects port/slice conflicts (each
  // optical port carries at most one circuit per slice — circuits are
  // exclusive waveguides). Returns false on conflict or out-of-range ids.
  bool add_circuit(const Circuit& c);
  // True iff the circuit could be added without conflict.
  bool feasible(const Circuit& c) const;

  const std::vector<Circuit>& circuits() const { return circuits_; }

  // Peer endpoint of (node, port) during `slice`, if a circuit is up.
  std::optional<Endpoint> peer(NodeId node, PortId port, SliceId slice) const;

  // All (neighbor, local port) pairs reachable from `node` in `slice` —
  // the neighbors() helper of Tab. 1. slice == kAnySlice returns neighbors
  // under static circuits only.
  std::vector<std::pair<NodeId, PortId>> neighbors(NodeId node,
                                                   SliceId slice) const;

  // First slice >= `from` (searching one full cycle, wrapping) in which
  // `node` has a circuit to `dst`; returns the local port too.
  // Slices here are cycle-relative (0..period-1). Answered from a lazily
  // built per-(node, dst) live-slice index — routing compilers issue
  // O(nodes^2 * period) of these, and a linear cycle scan per query made
  // 256-ToR table builds take tens of seconds.
  struct DirectHop {
    SliceId slice;
    PortId port;
  };
  std::optional<DirectHop> next_direct(NodeId node, NodeId dst,
                                       SliceId from) const;

  // Slice arithmetic.
  SliceId slice_of(std::int64_t abs_slice) const {
    return static_cast<SliceId>(((abs_slice % period_) + period_) % period_);
  }
  std::int64_t abs_slice_at(SimTime t) const {
    return t.ns() / slice_duration_.ns();
  }
  SliceId slice_at(SimTime t) const { return slice_of(abs_slice_at(t)); }
  SimTime slice_start(std::int64_t abs_slice) const {
    return SimTime::nanos(abs_slice * slice_duration_.ns());
  }

  std::string summary() const;

 private:
  std::size_t table_index(NodeId node, PortId port, SliceId slice) const;
  void build_direct_index() const;

  int num_nodes_;
  int uplinks_;
  SliceId period_;
  SimTime slice_duration_;
  std::vector<Circuit> circuits_;
  // Dense lookup: node x port x slice -> peer endpoint.
  std::vector<Endpoint> table_;
  // next_direct cache: per (node, dst), the (slice, port) pairs with a live
  // circuit, sorted. Built on first query, dropped by add_circuit. Queries
  // only come from serial routing compilation (never from worker lanes of
  // the sharded engine), so lazy mutation is race-free.
  mutable std::vector<std::vector<std::pair<SliceId, PortId>>> direct_index_;
  mutable bool direct_index_valid_ = false;
};

}  // namespace oo::optics
