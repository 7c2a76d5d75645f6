#include "transport/endpoint.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace oo::transport {

using core::Packet;
using core::PacketType;

FlowEndpoint::FlowEndpoint(core::Network& net, HostId src, HostId dst,
                           ReceiveFn at_src, ReceiveFn at_dst)
    : net_(net),
      flow_(net.alloc_flow_id()),
      src_(src),
      dst_(dst),
      src_bind_posted_(net_.host(src_).bind_flow(flow_, std::move(at_src))),
      dst_bind_posted_(net_.host(dst_).bind_flow(flow_, std::move(at_dst))) {}

// Serial destruction makes both unbinds inline, so their order is moot.
FlowEndpoint::~FlowEndpoint() {
  net_.host(src_).unbind_flow(flow_, src_bind_posted_);
  net_.host(dst_).unbind_flow(flow_, dst_bind_posted_);
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
  if (payload < 0 || payload > net::kMaxPacketBytes - kHeaderBytes) {
    throw std::invalid_argument("transport: a " + std::to_string(payload) +
                                " B payload does not fit a packet");
  }
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
  const std::int64_t end = p.seq + p.payload;
  if (p.seq > next_) {
    const auto it = std::lower_bound(
        ooo_.begin(), ooo_.end(), p.seq,
        [](const Run& r, std::int64_t seq) { return r.start < seq; });
    if (it != ooo_.end() && it->start == p.seq) {
      it->end = std::max(it->end, end);
    } else {
      ooo_.insert(it, Run{p.seq, end});
    }
    return true;
  }
  next_ = end;
  // Pull the buffered runs that are now contiguous.
  auto it = ooo_.begin();
  for (; it != ooo_.end() && it->start <= next_; ++it) {
    next_ = std::max(next_, it->end);
  }
  ooo_.erase(ooo_.begin(), it);
  return false;
}

}  // namespace oo::transport
