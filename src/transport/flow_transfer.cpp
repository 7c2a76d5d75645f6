#include "transport/flow_transfer.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

FlowTransfer::FlowTransfer(core::Network& net, HostId src, HostId dst,
                           std::int64_t bytes, FlowTransferConfig cfg,
                           DoneFn done)
    : ep_(net, src, dst,
          [this](Packet&& p) { on_sender_packet(std::move(p)); },
          [this](Packet&& p) { on_receiver_packet(std::move(p)); }),
      total_bytes_(bytes),
      cfg_(cfg),
      done_(std::move(done)) {}

void FlowTransfer::start() {
  if (!ep_.start()) return;
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
    if (blocked_) break;  // host stack backpressure: resume on ack or RTO
  }
}

void FlowTransfer::send_segment(std::int64_t seq) {
  const std::int64_t len = std::min(cfg_.mss, total_bytes_ - seq);
  if (!ep_.send_data(ep_.data(seq, len))) {
    // Segment queue full: rewind and wait for RTO (coarse but safe).
    blocked_ = true;
    snd_next_ = std::min(snd_next_, seq);
  } else {
    blocked_ = false;
  }
}

void FlowTransfer::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  rcv_.receive(p);
  // Cumulative ack, resent for out-of-order and trimmed arrivals too: a
  // trimmed segment's ack does not advance, and the RTO resends it.
  ep_.send_ack(ep_.ack(rcv_.next()));
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
  // Cancel before scheduling, not after as the assignment alone would: the
  // queue's dead-key count at each insert decides when it compacts, which
  // the pending-key count and the sharded window grid see.
  rto_.cancel();
  rto_ = ep_.sim().schedule_in(cfg_.rto, [this]() { on_rto(); }, "tcp.rto");
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
  rto_.cancel();
  ep_.complete(done_, "flow.done", ep_.elapsed(), retrans_);
}

}  // namespace oo::transport
