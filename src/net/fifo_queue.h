// Byte-bounded FIFO packet queue with pause/resume — the building block for
// both classical egress queues and the slice-indexed calendar queues built
// on top of it (§5.1).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "net/packet.h"

namespace oo::net {

class FifoQueue {
 public:
  explicit FifoQueue(std::int64_t capacity_bytes = INT64_MAX)
      : capacity_(capacity_bytes) {}

  // False if the packet does not fit (tail drop at the caller's discretion).
  bool enqueue(Packet&& p);
  std::optional<Packet> dequeue();
  const Packet* peek() const;

  bool empty() const { return !pkts_ || pkts_->empty(); }
  std::size_t size() const { return pkts_ ? pkts_->size() : 0; }
  std::int64_t bytes() const { return bytes_; }
  std::int64_t capacity() const { return capacity_; }
  std::int64_t free_bytes() const { return capacity_ - bytes_; }

  bool paused() const { return paused_; }
  void pause() { paused_ = true; }
  void resume() { paused_ = false; }

  // Running peak occupancy (buffer telemetry).
  std::int64_t peak_bytes() const { return peak_bytes_; }

 private:
  // Built by the first enqueue: an empty std::deque already holds a
  // heap map and node, and most per-destination and calendar queues are
  // never used.
  std::optional<std::deque<Packet>> pkts_;
  std::int64_t capacity_;
  std::int64_t bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
  bool paused_ = false;
};

}  // namespace oo::net
