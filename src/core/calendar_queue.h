// Slice-indexed calendar queues for one egress port (§5.1). Each of the K
// queues is a "calendar day"; the queue for the current slice is resumed
// while all others stay paused. The rank of an ingress packet is the
// difference between its departure and arrival slices; rank >= K cannot be
// held on the switch (buffer-offload territory, §5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "net/fifo_queue.h"
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
  // The optional registry counters mirror rank-overflow / full-reject totals
  // into shared aggregate metrics (e.g. "calendar.rank_overflows"); nullptr
  // keeps the port standalone.
  CalendarQueuePort(int num_queues, std::int64_t per_queue_capacity,
                    telemetry::Counter* rank_overflow_metric = nullptr,
                    telemetry::Counter* full_reject_metric = nullptr);

  int num_queues() const { return static_cast<int>(queues_.size()); }
  int active_index() const { return active_; }

  // Queue that will be active `rank` rotations from now (rank 0 = active).
  net::FifoQueue& queue_at_rank(int rank);
  net::FifoQueue& active_queue() { return queue_at_rank(0); }

  // Admission check + enqueue. `rank` in [0, K) required for Ok.
  EnqueueVerdict try_enqueue(net::Packet&& p, int rank);
  // Force-enqueue ignoring the capacity check (used by offload returns that
  // were already accounted for).
  EnqueueVerdict enqueue_unchecked(net::Packet&& p, int rank);

  // Pause the active queue, advance the calendar, resume the new active
  // queue (triggered per slice by the switch's rotation timer).
  void rotate();

  // Remove every held packet in calendar order (active queue first). The
  // pause state of each queue is preserved; used when a quarantined ToR must
  // evacuate its optical calendar onto the electrical fabric.
  std::vector<net::Packet> drain_all();

  std::int64_t total_bytes() const;
  std::int64_t total_packets() const;
  std::int64_t peak_total_bytes() const { return peak_total_; }
  std::int64_t rank_overflows() const { return rank_overflows_; }
  std::int64_t full_rejects() const { return full_rejects_; }

 private:
  std::vector<net::FifoQueue> queues_;
  int active_ = 0;
  std::int64_t peak_total_ = 0;
  std::int64_t rank_overflows_ = 0;
  std::int64_t full_rejects_ = 0;
  telemetry::Counter* rank_overflow_metric_;
  telemetry::Counter* full_reject_metric_;
};

}  // namespace oo::core
