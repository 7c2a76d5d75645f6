// A host's flow-sink table: FlowId -> the transport callback its packets are
// delivered to. Open addressing with linear probing over a power-of-two
// array of (id, sink index) entries, kept at most 75% full, and
// backward-shift erase, so lookups never meet tombstones. The sinks
// themselves live in fixed-size chunks that never move: a sink may bind
// further flows while it runs (a completion that launches the next
// transfer) without relocating its own closure. A host that binds nothing
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/ids.h"
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
  // Unbind `flow`; a no-op when it is not bound.
  void erase(FlowId flow);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return entries_.size(); }

 private:
  // Marks an empty entry; no allocator hands out the minimum id.
  static constexpr FlowId kEmpty = std::numeric_limits<FlowId>::min();
  static constexpr std::uint32_t kChunk = 64;  // sinks per chunk
  struct Entry {
    FlowId id = kEmpty;
    std::uint32_t sink = 0;  // chunks_[sink / kChunk][sink % kChunk]
  };

  // Home entry of `flow`: Fibonacci hashing spreads the sequential and
  // lane-prefixed (bits >= 40) ids the allocators produce.
  std::size_t home(FlowId flow) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(flow) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  Sink& sink(std::uint32_t i) { return chunks_[i / kChunk][i % kChunk]; }
  void grow();

  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<Sink[]>> chunks_;
  std::uint32_t sinks_ = 0;  // sink indices handed out so far
  std::vector<std::uint32_t> free_sinks_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace oo::core
