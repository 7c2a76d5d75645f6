#include "net/fifo_queue.h"

#include <algorithm>

namespace oo::net {

bool FifoQueue::enqueue(Packet&& p) {
  if (bytes_ + p.size_bytes > capacity_) return false;
  bytes_ += p.size_bytes;
  peak_bytes_ = std::max(peak_bytes_, bytes_);
  if (!pkts_) pkts_ = std::make_unique<std::deque<Packet>>();
  pkts_->push_back(std::move(p));
  return true;
}

std::optional<Packet> FifoQueue::dequeue() {
  if (paused_ || empty()) return std::nullopt;
  Packet p = std::move(pkts_->front());
  pkts_->pop_front();
  bytes_ -= p.size_bytes;
  return p;
}

const Packet* FifoQueue::peek() const {
  if (paused_ || empty()) return nullptr;
  return &pkts_->front();
}

}  // namespace oo::net
