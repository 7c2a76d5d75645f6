#include "transport/tcp_lite.h"

#include <algorithm>

namespace oo::transport {

using core::Packet;
using core::PacketType;

TcpLite::TcpLite(core::Network& net, HostId src, HostId dst, TcpConfig cfg)
    : net_(net),
      ep_(net, src, dst,
          [this](Packet&& p) { on_sender_packet(std::move(p)); },
          [this](Packet&& p) { on_receiver_packet(std::move(p)); }),
      cfg_(cfg),
      cwnd_(cfg.init_cwnd),
      ssthresh_(kMaxCwnd) {}

void TcpLite::start() {
  if (!ep_.start()) return;
  next_send_allowed_ = net_.sim().now();
  if (cfg_.retcp_bandwidth_ratio > 1.0 && net_.schedule().period() > 1) {
    // reTCP: at each reconfiguration, rescale cwnd by the bandwidth ratio
    // between circuit states instead of rediscovering it (prebuffering).
    const auto& sched = net_.schedule();
    const NodeId src_tor = net_.tor_of(ep_.src());
    const NodeId dst_tor = net_.tor_of(ep_.dst());
    auto circuit_up = [&sched, src_tor, dst_tor](SliceId s) {
      for (PortId u = 0; u < sched.uplinks(); ++u) {
        if (auto p = sched.peer(src_tor, u, s); p && p->node == dst_tor) {
          return true;
        }
      }
      return false;
    };
    retcp_circuit_up_ = circuit_up(sched.slice_at(net_.sim().now()));
    retcp_ = net_.sim().schedule_every(
        sched.slice_start(sched.abs_slice_at(net_.sim().now()) + 1),
        sched.slice_duration(),
        [this, circuit_up]() {
          if (stopped_) return;
          const bool up =
              circuit_up(net_.schedule().slice_at(net_.sim().now()));
          if (up == retcp_circuit_up_) return;
          retcp_circuit_up_ = up;
          ++retcp_rescalings_;
          if (up) {
            cwnd_ = std::min(cwnd_ * cfg_.retcp_bandwidth_ratio, kMaxCwnd);
          } else {
            cwnd_ = std::max(cwnd_ / cfg_.retcp_bandwidth_ratio, 2.0);
          }
          pump();
        },
        "tcp.retcp");
  }
  arm_rto();
  pump();
}

void TcpLite::pump() {
  if (stopped_ || !ep_.started()) return;
  const SimTime now = net_.sim().now();
  const NodeId dst_tor = net_.tor_of(ep_.dst());
  while (snd_next_ - snd_una_ <
         static_cast<std::int64_t>(cwnd_ * static_cast<double>(kTcpMss))) {
    if (total_bytes_ >= 0 && snd_next_ >= total_bytes_) return;
    // Socket buffer full (flow pausing during circuit-off periods): write
    // nothing rather than lose it; the next ack or RTO pumps again.
    if (!net_.host(ep_.src()).can_buffer(dst_tor, kTcpMss + kHeaderBytes)) {
      return;
    }
    if (cfg_.app_rate_cap > 0 && now < next_send_allowed_) {
      if (!pump_scheduled_) {
        pump_scheduled_ = true;
        pace_ = net_.sim().schedule_at(
            next_send_allowed_,
            [this]() {
              pump_scheduled_ = false;
              pump();
            },
            "tcp.pace");
      }
      return;
    }
    snd_next_ += send_segment(snd_next_);
    if (cfg_.app_rate_cap > 0) {
      next_send_allowed_ +=
          SimTime::nanos(serialization_ns(kTcpMss, cfg_.app_rate_cap));
      if (next_send_allowed_ < now) next_send_allowed_ = now;
    }
  }
}

std::int64_t TcpLite::send_segment(std::int64_t seq) {
  std::int64_t len = kTcpMss;
  if (total_bytes_ >= 0) len = std::min(len, total_bytes_ - seq);
  ep_.send_data(ep_.data(seq, len));
  return len;
}

void TcpLite::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  if (rcv_.receive(p)) ++reorder_events_;
  ep_.send_ack(ep_.ack(rcv_.next()));
}

void TcpLite::on_sender_packet(Packet&& p) {
  if (p.type != PacketType::Ack || stopped_) return;
  if (p.seq > snd_una_) {
    // New data acked.
    snd_una_ = p.seq;
    dupacks_ = 0;
    if (total_bytes_ >= 0 && snd_una_ >= total_bytes_ && !finished_) {
      finished_ = true;
      stopped_ = true;
      rto_.cancel();
      ep_.complete(done_, "tcp.done", ep_.elapsed());
      return;
    }
    arm_rto();
    if (in_recovery_ && snd_una_ >= recover_) in_recovery_ = false;
    if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
    cwnd_ = std::min(cwnd_, kMaxCwnd);
  } else if (p.seq == snd_una_) {
    ++dupacks_;
    if (dupacks_ == cfg_.dupack_threshold && !in_recovery_) {
      // Fast retransmit: under persistent reordering (VLB spraying) these
      // are spurious and halve cwnd for nothing — the Fig. 9 effect.
      ++fast_retx_;
      net_.sim().metrics().counter("tcp.fast_retx").inc();
      in_recovery_ = true;
      recover_ = snd_next_;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
      cwnd_ = ssthresh_;
      send_segment(snd_una_);
    }
  }
  pump();
}

void TcpLite::arm_rto() {
  rto_.cancel();  // before scheduling, as in FlowTransfer::arm_rto
  rto_ = net_.sim().schedule_in(cfg_.rto, [this]() { on_rto(); }, "tcp.rto");
}

void TcpLite::on_rto() {
  if (stopped_) return;
  ++rto_events_;
  net_.sim().metrics().counter("tcp.rto_events").inc();
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = cfg_.init_cwnd;
  dupacks_ = 0;
  in_recovery_ = false;
  snd_next_ = snd_una_;  // go-back-N resume
  arm_rto();
  pump();
}

}  // namespace oo::transport
