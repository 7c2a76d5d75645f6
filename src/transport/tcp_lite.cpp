#include "transport/tcp_lite.h"

#include <algorithm>

#include "transport/flow_transfer.h"

namespace oo::transport {

using core::Packet;
using core::PacketType;

TcpLite::TcpLite(core::Network& net, HostId src, HostId dst, TcpConfig cfg)
    : net_(net),
      src_(src),
      dst_(dst),
      flow_(net.alloc_flow_id()),
      cfg_(cfg),
      cwnd_(cfg.init_cwnd),
      ssthresh_(kMaxCwnd),
      alive_(std::make_shared<bool>(true)) {
  net_.host(src_).bind_flow(flow_, [this](Packet&& p) {
    on_sender_packet(std::move(p));
  });
  net_.host(dst_).bind_flow(flow_, [this](Packet&& p) {
    on_receiver_packet(std::move(p));
  });
}

TcpLite::~TcpLite() {
  *alive_ = false;
  rto_timer_.cancel();
  net_.host(src_).set_unblock_callback({});
  net_.host(src_).unbind_flow(flow_);
  net_.host(dst_).unbind_flow(flow_);
}

void TcpLite::start() {
  if (started_) return;
  started_ = true;
  start_time_ = net_.sim().now();
  next_send_allowed_ = start_time_;
  if (cfg_.retcp_bandwidth_ratio > 1.0 && net_.schedule().period() > 1) {
    // reTCP: at each reconfiguration, rescale cwnd by the bandwidth ratio
    // between circuit states instead of rediscovering it (prebuffering).
    const auto& sched = net_.schedule();
    const NodeId src_tor = net_.tor_of(src_);
    const NodeId dst_tor = net_.tor_of(dst_);
    auto circuit_up = [&sched, src_tor, dst_tor](SliceId s) {
      for (PortId u = 0; u < sched.uplinks(); ++u) {
        if (auto p = sched.peer(src_tor, u, s); p && p->node == dst_tor) {
          return true;
        }
      }
      return false;
    };
    retcp_circuit_up_ = circuit_up(sched.slice_at(net_.sim().now()));
    auto alive = alive_;
    net_.sim().schedule_every(
        sched.slice_start(sched.abs_slice_at(net_.sim().now()) + 1),
        sched.slice_duration(), [this, alive, circuit_up]() {
          if (!*alive || stopped_) return;
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
        });
  }
  // Blocking-socket semantics: when the stack's segment queue fills (flow
  // pausing during circuit-off periods), the sender waits for the unblock
  // callback instead of losing writes — exactly libvma's behaviour (§5.2).
  auto alive = alive_;
  net_.host(src_).set_unblock_callback([this, alive](NodeId) {
    if (*alive) pump();
  });
  arm_rto();
  pump();
}

double TcpLite::goodput_bps() const {
  const SimTime elapsed = net_.sim().now() - start_time_;
  if (elapsed <= SimTime::zero()) return 0.0;
  return static_cast<double>(snd_una_) * kBitsPerByte / elapsed.sec();
}

void TcpLite::pump() {
  if (stopped_ || !started_) return;
  const SimTime now = net_.sim().now();
  const NodeId dst_tor = net_.tor_of(dst_);
  while (snd_next_ - snd_una_ <
         static_cast<std::int64_t>(cwnd_ * static_cast<double>(kTcpMss))) {
    if (total_bytes_ >= 0 && snd_next_ >= total_bytes_) return;
    if (!net_.host(src_).can_buffer(dst_tor, kTcpMss + kHeaderBytes)) {
      return;  // socket buffer full: resume on the unblock callback
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
    std::int64_t len = kTcpMss;
    if (total_bytes_ >= 0) len = std::min(len, total_bytes_ - snd_next_);
    const std::int64_t seq = snd_next_;
    snd_next_ += len;
    send_segment(seq, false);
    if (cfg_.app_rate_cap > 0) {
      next_send_allowed_ +=
          SimTime::nanos(serialization_ns(kTcpMss, cfg_.app_rate_cap));
      if (next_send_allowed_ < now) next_send_allowed_ = now;
    }
  }
}

void TcpLite::send_segment(std::int64_t seq, bool retransmission) {
  (void)retransmission;
  Packet p;
  p.type = PacketType::Data;
  p.flow = flow_;
  p.dst_host = dst_;
  p.seq = seq;
  p.payload = kTcpMss;
  if (total_bytes_ >= 0) {
    p.payload = std::min<std::int64_t>(p.payload, total_bytes_ - seq);
  }
  p.size_bytes = p.payload + kHeaderBytes;
  net_.host(src_).send(std::move(p));
}

void TcpLite::on_receiver_packet(Packet&& p) {
  if (p.type != PacketType::Data) return;
  if (!p.trimmed) {
    if (p.seq == rcv_next_) {
      rcv_next_ += p.payload;
      // Pull any buffered out-of-order runs that are now contiguous.
      for (auto it = ooo_.begin(); it != ooo_.end();) {
        if (it->first <= rcv_next_) {
          rcv_next_ = std::max(rcv_next_, it->second);
          it = ooo_.erase(it);
        } else {
          break;
        }
      }
    } else if (p.seq > rcv_next_) {
      // Out-of-order arrival — the event Fig. 9(b) counts.
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
  ack.size_bytes = kHeaderBytes;
  net_.host(dst_).send(std::move(ack));
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
      rto_timer_.cancel();
      if (done_) {
        // done_ chains workload steps (control-plane state) and may
        // destroy this transport: run it on the control queue and never
        // touch `this` from the closure.
        const SimTime fct = net_.sim().now() - start_time_;
        net_.sim().run_on(
            sim::Simulator::kControlLane,
            [done = done_, fct]() { done(fct); }, "tcp.done");
      }
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
      send_segment(snd_una_, true);
    }
  }
  pump();
}

void TcpLite::arm_rto() {
  rto_timer_.cancel();
  auto alive = alive_;
  rto_timer_ = net_.sim().schedule_in(
      cfg_.rto, [this, alive]() {
        if (*alive) on_rto();
      },
      "tcp.rto");
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
