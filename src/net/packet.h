// Packet model. Packets are value types moved between queues and links;
// everything a switch, fabric, or transport needs rides along in the struct
// (simulation stand-in for header fields plus per-packet telemetry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>

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

// The hops a source-routing action writes into a packet, held as one heap
// block: the hop count, a cursor at the next hop to take, then the hops,
// which never change once written. Null for a per-hop packet, so a packet
// without a route carries one pointer. Each packet owns its block: a copy
// copies it, cursor included, so popping one copy's hop leaves the other's.
// The count and cursor are as wide as the time-flow table's own hop counts,
// so every route a table can hold is carried whole.
class SourceRoute {
 public:
  SourceRoute() = default;
  explicit SourceRoute(std::span<const SourceHop> hops) { assign(hops); }
  SourceRoute(const SourceRoute& o) {
    if (o.block_ != nullptr) {
      block_ = make(o.hop_span());
      block_->cursor = o.block_->cursor;
    }
  }
  SourceRoute(SourceRoute&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)) {}
  SourceRoute& operator=(const SourceRoute& o) {
    if (this != &o) *this = SourceRoute(o);
    return *this;
  }
  SourceRoute& operator=(SourceRoute&& o) noexcept {
    if (this != &o) {
      clear();
      block_ = std::exchange(o.block_, nullptr);
    }
    return *this;
  }
  ~SourceRoute() { clear(); }

  // Replaces the route with `hops`, cursor at the first; an empty span
  // leaves no route.
  void assign(std::span<const SourceHop> hops) {
    clear();
    if (!hops.empty()) block_ = make(hops);
  }
  void clear() { ::operator delete(std::exchange(block_, nullptr)); }

  // Every hop written, taken or not.
  bool empty() const { return block_ == nullptr; }
  std::size_t size() const { return block_ == nullptr ? 0 : block_->count; }
  const SourceHop& operator[](std::size_t i) const { return hops()[i]; }

  // A hop is left to take.
  bool has_next() const {
    return block_ != nullptr && block_->cursor < block_->count;
  }
  const SourceHop& next() const { return hops()[block_->cursor]; }
  void pop() { ++block_->cursor; }

 private:
  struct Block {
    std::uint32_t count;
    std::uint32_t cursor;
  };
  static_assert(alignof(SourceHop) <= alignof(Block));

  static Block* make(std::span<const SourceHop> hops) {
    void* raw =
        ::operator new(sizeof(Block) + hops.size() * sizeof(SourceHop));
    auto* b = ::new (raw) Block{static_cast<std::uint32_t>(hops.size()), 0};
    std::uninitialized_copy(hops.begin(), hops.end(),
                            reinterpret_cast<SourceHop*>(b + 1));
    return b;
  }
  const SourceHop* hops() const {
    return std::launder(reinterpret_cast<const SourceHop*>(block_ + 1));
  }
  std::span<const SourceHop> hop_span() const { return {hops(), size()}; }

  Block* block_ = nullptr;
};

// Laid out widest first, so the packet has no padding but its tail. Fields
// narrower than the ids they hold are bounded where they are set: packet
// sizes by the transports that build packets, intended_slice and
// intended_port by the Network, which rejects a schedule whose period or
// uplink count would not fit.
struct Packet {
  PacketId id = 0;
  FlowId flow = 0;
  std::int64_t seq = 0;          // transport sequence number (bytes)
  SimTime created;               // first entered the network
  SimTime probe_echo;            // original tx time carried by echoed probes
  // Buffer offloading (§5.2): the absolute slice a packet parked on a host
  // must be back on the switch for.
  std::int64_t offload_abs_slice = -1;

  // Remaining source route; empty when per-hop lookup is in use.
  SourceRoute source_route;

  // Endpoint nodes on the fabric (ToRs in the switch-centric design).
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  HostId dst_host = -1;

  std::int32_t size_bytes = 0;
  std::int32_t payload = 0;      // transport payload length (bytes)
  int hops = 0;                  // fabric hops traversed so far

  // Calendar-queue bookkeeping stamped at enqueue time: which cycle-relative
  // slice and uplink the packet was scheduled for. A mismatch when its queue
  // reactivates means the packet missed its slice (§5.2) and is re-routed.
  std::int16_t intended_slice = kAnySlice;
  std::int16_t intended_port = kInvalidPort;

  PacketType type = PacketType::Data;
  bool trimmed = false;          // payload cut by a Trim congestion response
  // Buffer offloading (§5.2): packet currently parked on / returning from a
  // host.
  bool offloaded = false;

  bool has_source_route() const { return source_route.has_next(); }
  // Forgets the slice, port and source route a switch scheduled, so the
  // next lookup routes the packet from scratch.
  void clear_route() {
    intended_slice = kAnySlice;
    intended_port = kInvalidPort;
    source_route.clear();
  }
  const SourceHop& next_hop() const { return source_route.next(); }
  void pop_hop() { source_route.pop(); }
};

static_assert(sizeof(Packet) <= 88);

// Largest packet, in bytes, size_bytes holds.
inline constexpr std::int64_t kMaxPacketBytes = INT32_MAX;
// Largest slice count and uplink count a packet's calendar stamp holds.
inline constexpr int kMaxStampedSlices = INT16_MAX;
inline constexpr int kMaxStampedPorts = INT16_MAX;

}  // namespace oo::net
