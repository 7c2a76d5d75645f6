// A host's flow-sink table: FlowId -> the transport callback its packets are
// delivered to. Open addressing with linear probing over a power-of-two
// array of (id, sink index) entries, kept at most 75% full, and
// backward-shift erase, so lookups never meet tombstones. The sinks
// themselves live in a Slab, whose slots never move: a sink may bind
// further flows while it runs (a completion that launches the next
// transfer) without relocating its own closure. A host that binds nothing
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/slab.h"
#include "net/packet.h"

namespace oo::core {

class FlowSinkTable {
 public:
  using Sink = std::function<void(net::Packet&&)>;

  // The sink bound to `flow`, or nullptr. Any id may be asked for: the
  // empty-entry marker is never a bound id, so it finds nothing.
  Sink* find(FlowId flow);
  // Bind `flow` to `fn`, replacing an earlier binding.
  void assign(FlowId flow, Sink fn);
  // Unbind `flow`; false (and nothing done) when it is not bound.
  bool erase(FlowId flow);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return entries_.size(); }

 private:
  // Marks an empty entry; no allocator hands out the minimum id.
  static constexpr FlowId kEmpty = std::numeric_limits<FlowId>::min();
  struct Entry {
    FlowId id = kEmpty;
    std::uint32_t sink = 0;  // slot in sinks_
  };

  // Home entry of `flow`: Fibonacci hashing spreads the sequential and
  // lane-prefixed (bits >= 40) ids the allocators produce.
  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(flow) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow();

  std::vector<Entry> entries_;
  Slab<Sink> sinks_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace oo::core
