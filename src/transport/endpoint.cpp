#include "transport/endpoint.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

FlowEndpoint::FlowEndpoint(core::Network& net, HostId src, HostId dst,
                           ReceiveFn at_src, ReceiveFn at_dst)
    : net_(net), src_(src), dst_(dst), flow_(net.alloc_flow_id()) {
  net_.host(src_).bind_flow(flow_, std::move(at_src));
  net_.host(dst_).bind_flow(flow_, std::move(at_dst));
}

// Serial destruction makes both unbinds inline, so their order is moot.
FlowEndpoint::~FlowEndpoint() {
  net_.host(src_).unbind_flow(flow_);
  net_.host(dst_).unbind_flow(flow_);
}

bool FlowEndpoint::start() {
  if (started_) return false;
  started_ = true;
  start_time_ = net_.sim().now();
  return true;
}

double FlowEndpoint::goodput_bps(std::int64_t acked) const {
  const SimTime t = elapsed();
  if (t <= SimTime::zero()) return 0.0;
  return static_cast<double>(acked) * kBitsPerByte / t.sec();
}

Packet FlowEndpoint::data(std::int64_t seq, std::int64_t payload) const {
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow_;
  p.dst_host = dst_;
  p.seq = seq;
  p.payload = payload;
  p.size_bytes = payload + kHeaderBytes;
  return p;
}

Packet FlowEndpoint::ack(std::int64_t seq) const {
  Packet p;
  p.type = PacketType::Ack;
  p.flow = flow_;
  p.dst_host = src_;
  p.seq = seq;
  p.size_bytes = kHeaderBytes;
  return p;
}

bool CumulativeReceiver::receive(const Packet& p) {
  if (p.trimmed || p.seq < next_) return false;
  if (p.seq > next_) {
    auto [it, inserted] = ooo_.emplace(p.seq, p.seq + p.payload);
    if (!inserted) it->second = std::max(it->second, p.seq + p.payload);
    return true;
  }
  next_ += p.payload;
  // Pull the buffered runs that are now contiguous.
  for (auto it = ooo_.begin(); it != ooo_.end() && it->first <= next_;
       it = ooo_.erase(it)) {
    next_ = std::max(next_, it->second);
  }
  return false;
}

}  // namespace oo::transport
