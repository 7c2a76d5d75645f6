// Byte-bounded FIFO packet queue with pause/resume: a host's per-destination
// segment queue and a ToR uplink's classical egress queue (§3 (c)).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
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
  // heap map and node, and most per-destination queues are never used.
  // Behind a pointer, an unused queue holds 8 bytes for it instead of 88.
  std::unique_ptr<std::deque<Packet>> pkts_;
  std::int64_t capacity_;
  std::int64_t bytes_ = 0;
  std::int64_t peak_bytes_ = 0;
  bool paused_ = false;
};

}  // namespace oo::net
