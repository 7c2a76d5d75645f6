#include "transport/trim_retx.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

TrimRetxTransfer::TrimRetxTransfer(core::Network& net, HostId src,
                                   HostId dst, std::int64_t bytes,
                                   FlowTransferConfig cfg, DoneFn done)
    : net_(net),
      ep_(net, src, dst,
          [this](Packet&& p) { on_sender_packet(std::move(p)); },
          [this](Packet&& p) { on_receiver_packet(std::move(p)); }),
      total_bytes_(bytes),
      cfg_(cfg),
      done_(std::move(done)) {}

void TrimRetxTransfer::start() {
  if (!ep_.start()) return;
  arm_rto();
  pump();
}

void TrimRetxTransfer::pump() {
  if (finished_) return;
  while (snd_next_ < total_bytes_ &&
         outstanding_.size() < static_cast<std::size_t>(cfg_.window)) {
    const std::int64_t seq = snd_next_;
    snd_next_ += std::min(cfg_.mss, total_bytes_ - seq);
    outstanding_.insert(seq);
    send_segment(seq);
  }
}

void TrimRetxTransfer::send_segment(std::int64_t seq) {
  ep_.send_data(ep_.data(seq, std::min(cfg_.mss, total_bytes_ - seq)));
}

void TrimRetxTransfer::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  // Acks are selective: each names the segment it answers. A trimmed
  // segment's surviving header is answered with a NACK, so the sender
  // resends it now.
  Packet reply = ep_.ack(p.seq);
  reply.trimmed = p.trimmed;  // marks this control packet as a NACK
  ep_.send_ack(std::move(reply));
}

void TrimRetxTransfer::on_sender_packet(Packet&& p) {
  if (p.type != PacketType::Ack || finished_) return;
  if (p.trimmed) {
    // NACK: prompt retransmission, no timeout involved.
    ++nacks_;
    if (outstanding_.count(p.seq) > 0) {
      ++prompt_retx_;
      send_segment(p.seq);
    }
    return;
  }
  outstanding_.erase(p.seq);
  arm_rto();
  if (snd_next_ >= total_bytes_ && outstanding_.empty()) {
    finish();
    return;
  }
  pump();
}

void TrimRetxTransfer::arm_rto() {
  rto_.cancel();  // before scheduling, as in FlowTransfer::arm_rto
  rto_ = net_.sim().schedule_in(cfg_.rto, [this]() { on_rto(); }, "tcp.rto");
}

void TrimRetxTransfer::on_rto() {
  if (finished_) return;
  ++rto_events_;
  net_.sim().metrics().counter("tcp.rto_events").inc();
  for (const auto seq : outstanding_) {
    send_segment(seq);
  }
  arm_rto();
  pump();
}

void TrimRetxTransfer::finish() {
  finished_ = true;
  rto_.cancel();
  ep_.complete(done_, "trim.done", ep_.elapsed(),
               prompt_retx_ + rto_events_);
}

}  // namespace oo::transport
