#include "core/calendar_queue.h"

#include <algorithm>
#include <cassert>

namespace oo::core {

CalendarQueuePort::CalendarQueuePort(int num_queues,
                                     std::int64_t per_queue_capacity,
                                     telemetry::Counter* rank_overflow_metric,
                                     telemetry::Counter* full_reject_metric)
    : rank_overflow_metric_(rank_overflow_metric),
      full_reject_metric_(full_reject_metric) {
  assert(num_queues >= 1);
  queues_.reserve(static_cast<std::size_t>(num_queues));
  for (int i = 0; i < num_queues; ++i) {
    queues_.emplace_back(per_queue_capacity);
    // All queues start paused except the active one — packets must never
    // leave outside their departure slice.
    if (i != active_) queues_.back().pause();
  }
}

EnqueueVerdict CalendarQueuePort::try_enqueue(net::Packet&& p, int rank) {
  if (rank < 0 || rank >= num_queues()) {
    ++rank_overflows_;
    if (rank_overflow_metric_) rank_overflow_metric_->inc();
    return EnqueueVerdict::RankOverflow;
  }
  const std::int64_t bytes = p.size_bytes;
  if (!queues_[index_of(rank)].enqueue(std::move(p))) {
    ++full_rejects_;
    if (full_reject_metric_) full_reject_metric_->inc();
    return EnqueueVerdict::Full;
  }
  total_bytes_ += bytes;
  ++total_packets_;
  peak_total_ = std::max(peak_total_, total_bytes_);
  return EnqueueVerdict::Ok;
}

std::optional<net::Packet> CalendarQueuePort::dequeue() {
  auto p = queues_[static_cast<std::size_t>(active_)].dequeue();
  if (p) {
    total_bytes_ -= p->size_bytes;
    --total_packets_;
  }
  return p;
}

void CalendarQueuePort::rotate() {
  queues_[static_cast<std::size_t>(active_)].pause();
  active_ = (active_ + 1) % num_queues();
  queues_[static_cast<std::size_t>(active_)].resume();
}

std::vector<net::Packet> CalendarQueuePort::drain_all() {
  std::vector<net::Packet> out;
  const int k = num_queues();
  for (int rank = 0; rank < k; ++rank) {
    auto& q = queues_[index_of(rank)];
    // dequeue() refuses to emit from a paused queue; lift the pause for the
    // drain and restore it afterwards.
    const bool was_paused = q.paused();
    q.resume();
    while (auto p = q.dequeue()) out.push_back(std::move(*p));
    if (was_paused) q.pause();
  }
  total_bytes_ = 0;
  total_packets_ = 0;
  return out;
}

}  // namespace oo::core
