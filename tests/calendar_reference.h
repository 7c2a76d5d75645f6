// Test-only reference for the calendar-queue port, as the simulator had it
// before the port held its packets in one slab: K byte-bounded FIFO queues,
// one per calendar day. The differential test in test_calendar_oracle.cpp
// holds core::CalendarQueuePort to it. Keep this code as it is; it is the
// specification the slab port must reproduce.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/calendar_queue.h"
#include "net/fifo_queue.h"
#include "net/packet.h"

namespace oo::core::reference {

class CalendarQueuePort {
 public:
  CalendarQueuePort(int num_queues, std::int64_t per_queue_capacity) {
    assert(num_queues >= 1);
    queues_.reserve(static_cast<std::size_t>(num_queues));
    for (int i = 0; i < num_queues; ++i) {
      queues_.emplace_back(per_queue_capacity);
      // All queues start paused except the active one — packets must never
      // leave outside their departure slice.
      if (i != active_) queues_.back().pause();
    }
  }

  int num_queues() const { return static_cast<int>(queues_.size()); }
  int active_index() const { return active_; }

  // Queue that will be active `rank` rotations from now (rank 0 = active).
  const net::FifoQueue& queue_at_rank(int rank) const {
    return queues_[index_of(rank)];
  }

  // Admission check + enqueue. `rank` in [0, K) required for Ok.
  EnqueueVerdict try_enqueue(net::Packet&& p, int rank) {
    if (rank < 0 || rank >= num_queues()) {
      ++rank_overflows_;
      return EnqueueVerdict::RankOverflow;
    }
    const std::int64_t bytes = p.size_bytes;
    if (!queues_[index_of(rank)].enqueue(std::move(p))) {
      ++full_rejects_;
      return EnqueueVerdict::Full;
    }
    total_bytes_ += bytes;
    ++total_packets_;
    peak_total_ = std::max(peak_total_, total_bytes_);
    return EnqueueVerdict::Ok;
  }

  // Head of the active queue, removed; nullopt when it is empty.
  std::optional<net::Packet> dequeue() {
    auto p = queues_[static_cast<std::size_t>(active_)].dequeue();
    if (p) {
      total_bytes_ -= p->size_bytes;
      --total_packets_;
    }
    return p;
  }
  // Head of the active queue, left in place; nullptr when it is empty.
  const net::Packet* peek() const {
    return queues_[static_cast<std::size_t>(active_)].peek();
  }

  void rotate() {
    queues_[static_cast<std::size_t>(active_)].pause();
    active_ = (active_ + 1) % num_queues();
    queues_[static_cast<std::size_t>(active_)].resume();
  }

  // Remove every held packet in calendar order (active queue first); the
  // pause state of each queue is preserved.
  std::vector<net::Packet> drain_all() {
    std::vector<net::Packet> out;
    const int k = num_queues();
    for (int rank = 0; rank < k; ++rank) {
      auto& q = queues_[index_of(rank)];
      // dequeue() refuses to emit from a paused queue; lift the pause for
      // the drain and restore it afterwards.
      const bool was_paused = q.paused();
      q.resume();
      while (auto p = q.dequeue()) out.push_back(std::move(*p));
      if (was_paused) q.pause();
    }
    total_bytes_ = 0;
    total_packets_ = 0;
    return out;
  }

  std::int64_t total_bytes() const { return total_bytes_; }
  std::int64_t total_packets() const { return total_packets_; }
  std::int64_t peak_total_bytes() const { return peak_total_; }
  std::int64_t rank_overflows() const { return rank_overflows_; }
  std::int64_t full_rejects() const { return full_rejects_; }

 private:
  std::size_t index_of(int rank) const {  // queues_ index of a rank
    assert(rank >= 0 && rank < num_queues());
    return static_cast<std::size_t>((active_ + rank) % num_queues());
  }

  std::vector<net::FifoQueue> queues_;
  int active_ = 0;
  std::int64_t total_bytes_ = 0;
  std::int64_t total_packets_ = 0;
  std::int64_t peak_total_ = 0;
  std::int64_t rank_overflows_ = 0;
  std::int64_t full_rejects_ = 0;
};

}  // namespace oo::core::reference
