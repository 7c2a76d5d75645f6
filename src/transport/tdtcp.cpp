#include "transport/tdtcp.h"

#include <algorithm>

#include "transport/flow_transfer.h"

namespace oo::transport {

using core::Packet;
using core::PacketType;

TdtcpLite::TdtcpLite(core::Network& net, HostId src, HostId dst,
                     TcpConfig cfg)
    : net_(net),
      src_(src),
      dst_(dst),
      flow_(net.alloc_flow_id()),
      cfg_(cfg),
      alive_(std::make_shared<bool>(true)) {
  const int phases =
      std::min<int>(32, std::max<int>(1, net_.schedule().period()));
  cwnd_.assign(static_cast<std::size_t>(phases), cfg_.init_cwnd);
  ssthresh_.assign(static_cast<std::size_t>(phases), cfg_.max_cwnd);
  inflight_.assign(static_cast<std::size_t>(phases), 0);
  net_.host(src_).bind_flow(flow_, [this](Packet&& p) {
    on_sender_packet(std::move(p));
  });
  net_.host(dst_).bind_flow(flow_, [this](Packet&& p) {
    on_receiver_packet(std::move(p));
  });
}

TdtcpLite::~TdtcpLite() {
  *alive_ = false;
  rto_timer_.cancel();
  net_.host(src_).unbind_flow(flow_);
  net_.host(dst_).unbind_flow(flow_);
}

int TdtcpLite::current_phase() const {
  return static_cast<int>(net_.schedule().slice_at(net_.sim().now()) %
                          static_cast<SliceId>(cwnd_.size()));
}

void TdtcpLite::start() {
  if (started_) return;
  started_ = true;
  start_time_ = net_.sim().now();
  next_send_allowed_ = start_time_;
  arm_rto();
  pump();
}

double TdtcpLite::goodput_bps() const {
  const SimTime elapsed = net_.sim().now() - start_time_;
  if (elapsed <= SimTime::zero()) return 0.0;
  return static_cast<double>(snd_una_) * kBitsPerByte / elapsed.sec();
}

void TdtcpLite::pump() {
  if (stopped_ || !started_) return;
  const SimTime now = net_.sim().now();
  for (;;) {
    const int phase = current_phase();
    // TDTCP gates on the *current topology's* window only.
    if (inflight_[static_cast<std::size_t>(phase)] >=
        static_cast<std::int64_t>(cwnd_[static_cast<std::size_t>(phase)] *
                                  static_cast<double>(cfg_.mss))) {
      // This phase is window-limited; try again next slice.
      if (!pump_scheduled_) {
        pump_scheduled_ = true;
        auto alive = alive_;
        const SimTime next_slice =
            net_.schedule().slice_start(
                net_.schedule().abs_slice_at(now) + 1);
        net_.sim().schedule_at(next_slice, [this, alive]() {
          if (!*alive) return;
          pump_scheduled_ = false;
          pump();
        });
      }
      return;
    }
    if (cfg_.app_rate_cap > 0 && now < next_send_allowed_) {
      if (!pump_scheduled_) {
        pump_scheduled_ = true;
        auto alive = alive_;
        net_.sim().schedule_at(next_send_allowed_, [this, alive]() {
          if (!*alive) return;
          pump_scheduled_ = false;
          pump();
        });
      }
      return;
    }
    if (!net_.host(src_).can_buffer(net_.tor_of(dst_), cfg_.mss + 64)) {
      return;  // socket buffer full; Host unblock callback not wired here —
               // the RTO pump keeps the connection moving.
    }
    const std::int64_t seq = snd_next_;
    snd_next_ += cfg_.mss;
    send_segment(seq, phase);
    if (cfg_.app_rate_cap > 0) {
      next_send_allowed_ +=
          SimTime::nanos(serialization_ns(cfg_.mss, cfg_.app_rate_cap));
      if (next_send_allowed_ < now) next_send_allowed_ = now;
    }
  }
}

void TdtcpLite::send_segment(std::int64_t seq, int phase) {
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow_;
  p.dst_host = dst_;
  p.seq = seq;
  p.payload = cfg_.mss;
  p.size_bytes = cfg_.mss + 64;
  // The send instant rides along (data "timestamp option"); acks echo it so
  // the sender can attribute them to the sending phase.
  p.probe_echo = net_.sim().now();
  auto [it, inserted] = outstanding_.try_emplace(
      seq, std::make_pair(static_cast<std::int64_t>(cfg_.mss), phase));
  if (inserted) {
    inflight_[static_cast<std::size_t>(phase)] += cfg_.mss;
  }
  net_.host(src_).send(std::move(p));
}

void TdtcpLite::release_acked(std::int64_t upto) {
  for (auto it = outstanding_.begin();
       it != outstanding_.end() && it->first < upto;) {
    inflight_[static_cast<std::size_t>(it->second.second)] -=
        it->second.first;
    it = outstanding_.erase(it);
  }
}

void TdtcpLite::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  if (!p.trimmed) {
    if (p.seq == rcv_next_) {
      rcv_next_ += p.payload;
      for (auto it = ooo_.begin(); it != ooo_.end();) {
        if (it->first <= rcv_next_) {
          rcv_next_ = std::max(rcv_next_, it->second);
          it = ooo_.erase(it);
        } else {
          break;
        }
      }
    } else if (p.seq > rcv_next_) {
      ++reorder_events_;
      auto [it, inserted] = ooo_.emplace(p.seq, p.seq + p.payload);
      if (!inserted) it->second = std::max(it->second, p.seq + p.payload);
    }
  }
  Packet ack;
  ack.type = PacketType::Ack;
  ack.flow = flow_;
  ack.dst_host = src_;
  ack.seq = rcv_next_;
  ack.size_bytes = cfg_.ack_bytes;
  ack.probe_echo = p.probe_echo;  // echo the send timestamp
  net_.host(dst_).send(std::move(ack));
}

void TdtcpLite::on_sender_packet(Packet&& p) {
  if (p.type != PacketType::Ack || stopped_) return;
  const int phase = static_cast<int>(
      net_.schedule().slice_at(p.probe_echo) %
      static_cast<SliceId>(cwnd_.size()));
  auto& cw = cwnd_[static_cast<std::size_t>(phase)];
  auto& ssth = ssthresh_[static_cast<std::size_t>(phase)];
  if (p.seq > snd_una_) {
    snd_una_ = p.seq;
    release_acked(p.seq);
    dupacks_ = 0;
    arm_rto();
    if (in_recovery_ && snd_una_ >= recover_) in_recovery_ = false;
    if (cw < ssth) {
      cw += 1.0;
    } else {
      cw += 1.0 / cw;
    }
    cw = std::min(cw, cfg_.max_cwnd);
  } else if (p.seq == snd_una_) {
    ++dupacks_;
    if (dupacks_ == cfg_.dupack_threshold && !in_recovery_) {
      // Only the phase that carried the (apparently lost) data pays.
      ++fast_retx_;
      net_.sim().metrics().counter("tcp.fast_retx").inc();
      in_recovery_ = true;
      recover_ = snd_next_;
      ssth = std::max(cw / 2.0, 2.0);
      cw = ssth;
      send_segment(snd_una_, phase);
    }
  }
  pump();
}

void TdtcpLite::arm_rto() {
  rto_timer_.cancel();
  auto alive = alive_;
  rto_timer_ = net_.sim().schedule_in(
      cfg_.rto, [this, alive]() {
        if (*alive) on_rto();
      },
      "tcp.rto");
}

void TdtcpLite::on_rto() {
  if (stopped_) return;
  net_.sim().metrics().counter("tcp.rto_events").inc();
  const int phase = current_phase();
  ssthresh_[static_cast<std::size_t>(phase)] =
      std::max(cwnd_[static_cast<std::size_t>(phase)] / 2.0, 2.0);
  cwnd_[static_cast<std::size_t>(phase)] = cfg_.init_cwnd;
  dupacks_ = 0;
  in_recovery_ = false;
  snd_next_ = snd_una_;
  release_acked(snd_next_ + 1);  // clear everything; GBN resend
  for (auto& f : inflight_) f = 0;
  outstanding_.clear();
  arm_rto();
  pump();
}

}  // namespace oo::transport
