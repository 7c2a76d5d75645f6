#include "transport/tdtcp.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

TdtcpLite::TdtcpLite(core::Network& net, HostId src, HostId dst,
                     TcpConfig cfg)
    : net_(net),
      ep_(net, src, dst,
          [this](Packet&& p) { on_sender_packet(std::move(p)); },
          [this](Packet&& p) { on_receiver_packet(std::move(p)); }),
      cfg_(cfg) {
  const int phases =
      std::min<int>(32, std::max<int>(1, net_.schedule().period()));
  cwnd_.assign(static_cast<std::size_t>(phases), cfg_.init_cwnd);
  ssthresh_.assign(static_cast<std::size_t>(phases), kMaxCwnd);
  inflight_.assign(static_cast<std::size_t>(phases), 0);
}

int TdtcpLite::current_phase() const {
  return static_cast<int>(net_.schedule().slice_at(net_.sim().now()) %
                          static_cast<SliceId>(cwnd_.size()));
}

void TdtcpLite::start() {
  if (!ep_.start()) return;
  next_send_allowed_ = net_.sim().now();
  arm_rto();
  pump();
}

void TdtcpLite::schedule_pump(SimTime at) {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  pump_ = net_.sim().schedule_at(
      at,
      [this]() {
        pump_scheduled_ = false;
        pump();
      },
      "tdtcp.pump");
}

void TdtcpLite::pump() {
  if (stopped_ || !ep_.started()) return;
  const SimTime now = net_.sim().now();
  for (;;) {
    const int phase = current_phase();
    // TDTCP gates on the *current topology's* window only.
    if (inflight_[static_cast<std::size_t>(phase)] >=
        static_cast<std::int64_t>(cwnd_[static_cast<std::size_t>(phase)] *
                                  static_cast<double>(kTcpMss))) {
      // This phase is window-limited; try again next slice.
      schedule_pump(net_.schedule().slice_start(
          net_.schedule().abs_slice_at(now) + 1));
      return;
    }
    if (cfg_.app_rate_cap > 0 && now < next_send_allowed_) {
      schedule_pump(next_send_allowed_);
      return;
    }
    if (!net_.host(ep_.src()).can_buffer(net_.tor_of(ep_.dst()),
                                         kTcpMss + kHeaderBytes)) {
      return;  // socket buffer full: the next ack or RTO pumps again
    }
    const std::int64_t seq = snd_next_;
    snd_next_ += kTcpMss;
    send_segment(seq, phase);
    if (cfg_.app_rate_cap > 0) {
      next_send_allowed_ +=
          SimTime::nanos(serialization_ns(kTcpMss, cfg_.app_rate_cap));
      if (next_send_allowed_ < now) next_send_allowed_ = now;
    }
  }
}

void TdtcpLite::send_segment(std::int64_t seq, int phase) {
  Packet p = ep_.data(seq, kTcpMss);
  // The send instant rides along (data "timestamp option"); acks echo it so
  // the sender can attribute them to the sending phase.
  p.probe_echo = net_.sim().now();
  auto [it, inserted] = outstanding_.try_emplace(
      seq, std::make_pair(kTcpMss, phase));
  if (inserted) {
    inflight_[static_cast<std::size_t>(phase)] += kTcpMss;
  }
  ep_.send_data(std::move(p));
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
  if (rcv_.receive(p)) ++reorder_events_;
  Packet ack = ep_.ack(rcv_.next());
  ack.probe_echo = p.probe_echo;  // echo the send timestamp
  ep_.send_ack(std::move(ack));
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
    cw = std::min(cw, kMaxCwnd);
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
  rto_.cancel();  // before scheduling, as in FlowTransfer::arm_rto
  rto_ = net_.sim().schedule_in(cfg_.rto, [this]() { on_rto(); }, "tcp.rto");
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
