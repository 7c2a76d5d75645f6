#include "core/calendar_queue.h"

#include <algorithm>
#include <cassert>

namespace oo::core {

CalendarQueuePort::CalendarQueuePort(int num_queues,
                                     std::int64_t per_queue_capacity,
                                     telemetry::Counter* rank_overflow_metric,
                                     telemetry::Counter* full_reject_metric)
    : days_(static_cast<std::size_t>(num_queues)),
      capacity_(per_queue_capacity),
      rank_overflow_metric_(rank_overflow_metric),
      full_reject_metric_(full_reject_metric) {
  assert(num_queues >= 1);
  // All queues start paused except the active one — packets must never
  // leave outside their departure slice.
  days_[static_cast<std::size_t>(active_)].paused_ = false;
}

EnqueueVerdict CalendarQueuePort::try_enqueue(net::Packet&& p, int rank) {
  if (rank < 0 || rank >= num_queues()) {
    count_rank_overflow();
    return EnqueueVerdict::RankOverflow;
  }
  Day& d = days_[index_of(rank)];
  const std::int64_t bytes = p.size_bytes;
  if (d.bytes_ + bytes > capacity_) {
    ++full_rejects_;
    if (full_reject_metric_) full_reject_metric_->inc();
    return EnqueueVerdict::Full;
  }
  const std::uint32_t s = slots_.emplace(std::move(p));
  if (s / kChunk == links_.size()) {
    links_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(kChunk));
  }
  next(s) = kNoSlot;
  if (d.count_ == 0) {
    d.head_ = s;
  } else {
    next(d.tail_) = s;
  }
  d.tail_ = s;
  ++d.count_;
  d.bytes_ += bytes;
  total_bytes_ += bytes;
  ++total_packets_;
  peak_total_ = std::max(peak_total_, total_bytes_);
  return EnqueueVerdict::Ok;
}

void CalendarQueuePort::count_rank_overflow() {
  ++rank_overflows_;
  if (rank_overflow_metric_) rank_overflow_metric_->inc();
}

net::Packet CalendarQueuePort::pop_head(Day& d) {
  const std::uint32_t s = d.head_;
  net::Packet p = std::move(slots_[s]);
  slots_.erase(s);
  d.head_ = next(s);
  if (--d.count_ == 0) d.tail_ = kNoSlot;
  d.bytes_ -= p.size_bytes;
  return p;
}

std::optional<net::Packet> CalendarQueuePort::dequeue() {
  Day& d = days_[static_cast<std::size_t>(active_)];
  if (d.paused_ || d.count_ == 0) return std::nullopt;
  std::optional<net::Packet> p(pop_head(d));
  total_bytes_ -= p->size_bytes;
  --total_packets_;
  return p;
}

const net::Packet* CalendarQueuePort::peek() const {
  const Day& d = days_[static_cast<std::size_t>(active_)];
  if (d.paused_ || d.count_ == 0) return nullptr;
  return &slots_[d.head_];
}

void CalendarQueuePort::rotate() {
  days_[static_cast<std::size_t>(active_)].paused_ = true;
  active_ = (active_ + 1) % num_queues();
  days_[static_cast<std::size_t>(active_)].paused_ = false;
}

std::vector<net::Packet> CalendarQueuePort::drain_all() {
  std::vector<net::Packet> out;
  out.reserve(static_cast<std::size_t>(total_packets_));
  for (int rank = 0; rank < num_queues(); ++rank) {
    Day& d = days_[index_of(rank)];
    while (d.count_ > 0) out.push_back(pop_head(d));
  }
  total_bytes_ = 0;
  total_packets_ = 0;
  return out;
}

}  // namespace oo::core
