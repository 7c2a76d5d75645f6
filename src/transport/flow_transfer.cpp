#include "transport/flow_transfer.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

FlowTransfer::FlowTransfer(core::Network& net, HostId src, HostId dst,
                           std::int64_t bytes, FlowTransferConfig cfg,
                           DoneFn done)
    : net_(net),
      src_(src),
      dst_(dst),
      flow_(net.alloc_flow_id()),
      total_bytes_(bytes),
      cfg_(cfg),
      done_(std::move(done)) {
  net_.host(src_).bind_flow(flow_, [this](Packet&& p) {
    on_sender_packet(std::move(p));
  });
  net_.host(dst_).bind_flow(flow_, [this](Packet&& p) {
    on_receiver_packet(std::move(p));
  });
}

FlowTransfer::~FlowTransfer() {
  rto_timer_.cancel();
  net_.host(src_).unbind_flow(flow_);
  net_.host(dst_).unbind_flow(flow_);
}

void FlowTransfer::start() {
  if (started_) return;
  started_ = true;
  start_time_ = net_.sim().now();
  arm_rto();
  pump();
}

void FlowTransfer::pump() {
  if (finished_) return;
  while (snd_next_ < total_bytes_ &&
         snd_next_ - snd_una_ <
             static_cast<std::int64_t>(cfg_.window) * cfg_.mss) {
    const std::int64_t seq = snd_next_;
    const std::int64_t len = std::min(cfg_.mss, total_bytes_ - seq);
    snd_next_ += len;
    send_segment(seq);
    if (blocked_) break;  // host stack backpressure: resume on unblock
  }
}

void FlowTransfer::send_segment(std::int64_t seq) {
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow_;
  p.dst_host = dst_;
  p.seq = seq;
  p.payload = std::min(cfg_.mss, total_bytes_ - seq);
  p.size_bytes = p.payload + kHeaderBytes;
  if (!net_.host(src_).send(std::move(p))) {
    // Segment queue full: rewind and wait for RTO (coarse but safe).
    blocked_ = true;
    snd_next_ = std::min(snd_next_, seq);
  } else {
    blocked_ = false;
  }
}

void FlowTransfer::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  if (p.trimmed) {
    // Header-only survivor of a Trim congestion response: data lost, the
    // ack (not advancing) triggers RTO at the sender.
  } else if (p.seq == rcv_next_) {
    rcv_next_ += p.payload;
    // Pull buffered out-of-order runs that are now contiguous.
    for (auto it = ooo_.begin(); it != ooo_.end();) {
      if (it->first <= rcv_next_) {
        rcv_next_ = std::max(rcv_next_, it->second);
        it = ooo_.erase(it);
      } else {
        break;
      }
    }
  } else if (p.seq > rcv_next_) {
    auto [it, inserted] = ooo_.emplace(p.seq, p.seq + p.payload);
    if (!inserted) it->second = std::max(it->second, p.seq + p.payload);
  }
  // Cumulative ack (also resent for out-of-order / trimmed arrivals).
  Packet ack;
  ack.type = PacketType::Ack;
  ack.flow = flow_;
  ack.dst_host = src_;
  ack.seq = rcv_next_;
  ack.size_bytes = kHeaderBytes;
  net_.host(dst_).send(std::move(ack));
}

void FlowTransfer::on_sender_packet(Packet&& p) {
  if (p.type != PacketType::Ack || finished_) return;
  if (p.seq > snd_una_) {
    snd_una_ = p.seq;
    arm_rto();
    if (snd_una_ >= total_bytes_) {
      finish();
      return;
    }
  }
  pump();
}

void FlowTransfer::arm_rto() {
  rto_timer_.cancel();
  // The destructor cancels the timer, so the closure needs only `this`.
  rto_timer_ = net_.sim().schedule_in(cfg_.rto, [this]() { on_rto(); },
                                      "tcp.rto");
}

void FlowTransfer::on_rto() {
  if (finished_) return;
  // Go-back-N: resume from the lowest unacked byte.
  ++retrans_;
  blocked_ = false;
  snd_next_ = snd_una_;
  arm_rto();
  pump();
}

void FlowTransfer::finish() {
  finished_ = true;
  rto_timer_.cancel();
  if (!done_) return;
  const SimTime fct = net_.sim().now() - start_time_;
  const std::int64_t retrans = retrans_;
  // Sharded: the full ack lands on the sender ToR's lane, but done_
  // callbacks mutate workload aggregates and may launch or destroy
  // transfers — control-plane state. Copy the results out and run the
  // callback on the control queue; it may delete this transfer, so the
  // closure must not capture `this`.
  net_.sim().run_on(
      sim::Simulator::kControlLane,
      [done = done_, fct, retrans]() { done(fct, retrans); }, "flow.done");
}

}  // namespace oo::transport
