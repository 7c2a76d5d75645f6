// Slice-indexed calendar queues for one egress port (§5.1). Each of the K
// queues is a "calendar day"; the queue for the current slice is resumed
// while all others stay paused. The rank of an ingress packet is the
// difference between its departure and arrival slices; rank >= K cannot be
// held on the switch (buffer-offload territory, §5.2).
//
// The port holds every packet of its K days in one slab of packet slots,
// with one next-slot link per slot beside it, allocated a slab chunk's
// worth at a time as the slab grows; a day is the head, tail and length of
// its list through those links. A queued packet so costs its slot and its
// link, and an empty day a 24-byte record.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/slab.h"
#include "net/packet.h"
#include "telemetry/metrics.h"

namespace oo::core {

enum class EnqueueVerdict {
  Ok,
  Full,          // intended queue cannot take the bytes (congestion, §5.2)
  RankOverflow,  // departure slice beyond the calendar horizon (offload)
};

class CalendarQueuePort {
 public:
  // One calendar day's queue, as the port's lists hold it.
  class Day {
   public:
    bool paused() const { return paused_; }
    std::int64_t bytes() const { return bytes_; }
    std::size_t size() const { return count_; }

   private:
    friend class CalendarQueuePort;
    std::uint32_t head_ = kNoSlot;
    std::uint32_t tail_ = kNoSlot;
    std::uint32_t count_ = 0;
    bool paused_ = true;
    std::int64_t bytes_ = 0;
  };

  // The optional registry counters mirror rank-overflow / full-reject totals
  // into shared aggregate metrics (e.g. "calendar.rank_overflows"); nullptr
  // keeps the port standalone.
  CalendarQueuePort(int num_queues, std::int64_t per_queue_capacity,
                    telemetry::Counter* rank_overflow_metric = nullptr,
                    telemetry::Counter* full_reject_metric = nullptr);

  int num_queues() const { return static_cast<int>(days_.size()); }
  int active_index() const { return active_; }

  // Queue that will be active `rank` rotations from now (rank 0 = active).
  // Packets enter and leave only through the port, which keeps the totals.
  const Day& queue_at_rank(int rank) const { return days_[index_of(rank)]; }
  const Day& active_queue() const { return queue_at_rank(0); }

  // Admission check + enqueue. `rank` in [0, K) required for Ok; on any
  // other verdict `p` is left as it was.
  EnqueueVerdict try_enqueue(net::Packet&& p, int rank);
  // Counts a packet whose rank the caller found past the calendar before
  // offering it (try_enqueue counts the ones it is offered).
  void count_rank_overflow();
  // Head of the active queue, removed; nullopt when it is empty.
  std::optional<net::Packet> dequeue();
  // Head of the active queue, left in place; nullptr when it is empty.
  const net::Packet* peek() const;

  // Pause the active queue, advance the calendar, resume the new active
  // queue (triggered per slice by the switch's rotation timer).
  void rotate();

  // Remove every held packet in calendar order (active queue first). The
  // pause state of each queue is preserved; used when a quarantined ToR must
  // evacuate its optical calendar onto the electrical fabric.
  std::vector<net::Packet> drain_all();

  // Bytes and packets held over all K queues (running totals).
  std::int64_t total_bytes() const { return total_bytes_; }
  std::int64_t total_packets() const { return total_packets_; }
  std::int64_t peak_total_bytes() const { return peak_total_; }
  std::int64_t rank_overflows() const { return rank_overflows_; }
  std::int64_t full_rejects() const { return full_rejects_; }
  // Packet slots ever filled. Freed slots are reused first, so this is the
  // most packets the port has held at once.
  std::size_t slots() const { return slots_.slots(); }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::uint32_t kChunk = Slab<net::Packet>::kChunkSlots;

  std::size_t index_of(int rank) const {  // days_ index of a rank
    assert(rank >= 0 && rank < num_queues());
    return static_cast<std::size_t>((active_ + rank) % num_queues());
  }
  // Unlinks day d's head packet and frees its slot.
  net::Packet pop_head(Day& d);
  // The slot after slot s in its day's list, or kNoSlot.
  std::uint32_t& next(std::uint32_t s) { return links_[s / kChunk][s % kChunk]; }

  Slab<net::Packet> slots_;
  // links_[c]: the links of slab chunk c's slots.
  std::vector<std::unique_ptr<std::uint32_t[]>> links_;
  std::vector<Day> days_;
  std::int64_t capacity_;  // bytes per day
  int active_ = 0;
  std::int64_t total_bytes_ = 0;
  std::int64_t total_packets_ = 0;
  std::int64_t peak_total_ = 0;
  std::int64_t rank_overflows_ = 0;
  std::int64_t full_rejects_ = 0;
  telemetry::Counter* rank_overflow_metric_;
  telemetry::Counter* full_reject_metric_;
};

}  // namespace oo::core
