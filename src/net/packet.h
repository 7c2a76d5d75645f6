// Packet model. Packets are value types moved between queues and links;
// everything a switch, fabric, or transport needs rides along in the struct
// (simulation stand-in for header fields plus per-packet telemetry).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace oo::net {

enum class PacketType : std::uint8_t {
  Data,            // application payload
  Ack,             // transport acknowledgement
  Pushback,        // traffic push-back broadcast (§5.2)
  Probe,           // delay/RTT measurement probe
};

// One source-routing hop: <egress port, departure time slice> as written by
// the time-flow table's source-routing action (§3, Fig. 3(d)).
struct SourceHop {
  PortId egress = kInvalidPort;
  SliceId dep_slice = kAnySlice;
};

struct Packet {
  PacketId id = 0;
  FlowId flow = 0;
  PacketType type = PacketType::Data;

  // Endpoint nodes on the fabric (ToRs in the switch-centric design).
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  HostId src_host = -1;
  HostId dst_host = -1;

  std::int64_t size_bytes = 0;
  std::int64_t seq = 0;          // transport sequence number (bytes)
  std::int64_t payload = 0;      // transport payload length (bytes)

  SimTime created;               // first entered the network
  SimTime probe_echo;            // original tx time carried by echoed probes
  int hops = 0;                  // fabric hops traversed so far
  bool trimmed = false;          // payload cut by a Trim congestion response

  // Remaining source route; empty when per-hop lookup is in use.
  std::vector<SourceHop> source_route;
  std::size_t route_idx = 0;

  // Calendar-queue bookkeeping stamped at enqueue time: which cycle-relative
  // slice and uplink the packet was scheduled for. A mismatch when its queue
  // reactivates means the packet missed its slice (§5.2) and is re-routed.
  SliceId intended_slice = kAnySlice;
  PortId intended_port = kInvalidPort;
  // Buffer offloading (§5.2): packet currently parked on / returning from a
  // host, and the absolute slice it must be back on the switch for.
  bool offloaded = false;
  std::int64_t offload_abs_slice = -1;

  bool has_source_route() const { return route_idx < source_route.size(); }
  // Forgets the slice, port and source route a switch scheduled, so the
  // next lookup routes the packet from scratch.
  void clear_route() {
    intended_slice = kAnySlice;
    intended_port = kInvalidPort;
    source_route.clear();
    route_idx = 0;
  }
  const SourceHop& next_hop() const { return source_route[route_idx]; }
  void pop_hop() { ++route_idx; }
};

}  // namespace oo::net
