#include "transport/trim_retx.h"

#include <algorithm>

#include "transport/flow_transfer.h"

namespace oo::transport {

using core::Packet;
using core::PacketType;

TrimRetxTransfer::TrimRetxTransfer(core::Network& net, HostId src,
                                   HostId dst, std::int64_t bytes,
                                   TrimRetxConfig cfg, DoneFn done)
    : net_(net),
      src_(src),
      dst_(dst),
      flow_(net.alloc_flow_id()),
      total_bytes_(bytes),
      cfg_(cfg),
      done_(std::move(done)),
      alive_(std::make_shared<bool>(true)) {
  net_.host(src_).bind_flow(flow_, [this](Packet&& p) {
    on_sender_packet(std::move(p));
  });
  net_.host(dst_).bind_flow(flow_, [this](Packet&& p) {
    on_receiver_packet(std::move(p));
  });
}

TrimRetxTransfer::~TrimRetxTransfer() {
  *alive_ = false;
  rto_timer_.cancel();
  net_.host(src_).unbind_flow(flow_);
  net_.host(dst_).unbind_flow(flow_);
}

void TrimRetxTransfer::start() {
  if (started_) return;
  started_ = true;
  start_time_ = net_.sim().now();
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
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow_;
  p.dst_host = dst_;
  p.seq = seq;
  p.payload = std::min(cfg_.mss, total_bytes_ - seq);
  p.size_bytes = p.payload + 64;
  net_.host(src_).send(std::move(p));
}

void TrimRetxTransfer::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  Packet reply;
  reply.type = PacketType::Ack;
  reply.flow = flow_;
  reply.dst_host = src_;
  reply.seq = p.seq;
  reply.size_bytes = cfg_.ack_bytes;
  if (p.trimmed) {
    // The header survived the trim: NACK so the sender resends now.
    reply.trimmed = true;  // marks this control packet as a NACK
    net_.host(dst_).send(std::move(reply));
    return;
  }
  // Record the range once (retransmissions may duplicate).
  auto [it, inserted] = received_.emplace(p.seq, p.seq + p.payload);
  if (inserted) {
    received_bytes_ += p.payload;
  }
  net_.host(dst_).send(std::move(reply));
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
  rto_timer_.cancel();
  auto alive = alive_;
  rto_timer_ = net_.sim().schedule_in(
      cfg_.rto, [this, alive]() {
        if (*alive) on_rto();
      },
      "tcp.rto");
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
  rto_timer_.cancel();
  if (!done_) return;
  const SimTime fct = net_.sim().now() - start_time_;
  const std::int64_t retx = prompt_retx_ + rto_events_;
  // done_ is control-plane state and may destroy this transfer; run it on
  // the control queue without capturing `this`.
  net_.sim().run_on(
      sim::Simulator::kControlLane,
      [done = done_, fct, retx]() { done(fct, retx); }, "trim.done");
}

}  // namespace oo::transport
