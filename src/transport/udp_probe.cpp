#include "transport/udp_probe.h"

#include <algorithm>
#include <string>

#include "transport/flow_transfer.h"

namespace oo::transport {

using core::Packet;
using core::PacketType;

UdpProbe::UdpProbe(core::Network& net, HostId pinger, HostId responder,
                   SimTime interval, std::int64_t size_bytes)
    : net_(net),
      pinger_(pinger),
      responder_(responder),
      interval_(interval),
      size_bytes_(size_bytes),
      flow_(net.alloc_flow_id()),
      lost_cell_(&net.sim().metrics().counter("probe.lost")),
      // Labeled by prober ToR so the (non-atomic) sampler is only ever
      // touched from that node's lane — concurrent probes never share it.
      rtt_cell_(&net.sim().metrics().histogram(
          "probe.rtt_us", {{"node", std::to_string(net.tor_of(pinger))}})),
      alive_(std::make_shared<bool>(true)) {
  net_.host(responder_).bind_flow(flow_, [this](Packet&& p) {
    // Echo the probe back, preserving the original tx timestamp and seq.
    Packet echo;
    echo.type = PacketType::Probe;
    echo.flow = flow_;
    echo.dst_host = pinger_;
    echo.size_bytes = p.size_bytes;
    echo.probe_echo = p.probe_echo;
    echo.seq = p.seq;
    net_.host(responder_).send(std::move(echo));
  });
  net_.host(pinger_).bind_flow(flow_, [this](Packet&& p) {
    // A duplicate echo (original answered after a retransmission already
    // went out) still lands here; only the first one per seq counts.
    if (timeout_ > SimTime::zero() && outstanding_.erase(p.seq) == 0) return;
    ++received_;
    const SimTime rtt = net_.sim().now() - p.probe_echo;
    rtts_us_.add(rtt.us());
    rtt_cell_->add(rtt.us());
    if (auto* rec = net_.sim().recorder()) {
      rec->probe_echo(net_.sim().now(), net_.tor_of(pinger_),
                      net_.tor_of(responder_), p.seq, rtt.ns());
    }
  });
}

UdpProbe::~UdpProbe() {
  *alive_ = false;
  timer_.cancel();
  net_.host(responder_).unbind_flow(flow_);
  net_.host(pinger_).unbind_flow(flow_);
}

void UdpProbe::start() {
  auto alive = alive_;
  timer_ = net_.sim().schedule_every(net_.sim().now() + interval_, interval_,
                                     [this, alive]() {
                                       if (*alive) send_probe();
                                     });
  send_probe();
}

void UdpProbe::stop() { timer_.cancel(); }

void UdpProbe::set_timeout(SimTime timeout, SimTime backoff_cap,
                           int max_retries) {
  timeout_ = timeout;
  backoff_cap_ = backoff_cap < timeout ? timeout : backoff_cap;
  max_retries_ = max_retries < 0 ? 0 : max_retries;
}

void UdpProbe::send_probe() {
  const std::int64_t seq = next_seq_++;
  ++sent_;
  transmit(seq);
  if (timeout_ > SimTime::zero()) {
    outstanding_.insert(seq);
    arm_timeout(seq, 0, timeout_);
  }
}

void UdpProbe::transmit(std::int64_t seq) {
  Packet p;
  p.type = PacketType::Probe;
  p.flow = flow_;
  p.dst_host = responder_;
  p.size_bytes = size_bytes_;
  p.probe_echo = net_.sim().now();
  p.seq = seq;
  if (auto* rec = net_.sim().recorder()) {
    rec->probe_send(net_.sim().now(), net_.tor_of(pinger_),
                    net_.tor_of(responder_), seq);
  }
  net_.host(pinger_).send(std::move(p));
}

void UdpProbe::arm_timeout(std::int64_t seq, int retry, SimTime delay) {
  auto alive = alive_;
  net_.sim().schedule_in(
      delay,
      [this, alive, seq, retry, delay]() {
        if (!*alive) return;
        if (outstanding_.find(seq) == outstanding_.end()) return;  // echoed
        if (auto* rec = net_.sim().recorder()) {
          rec->probe_timeout(net_.sim().now(), net_.tor_of(pinger_),
                             net_.tor_of(responder_), seq, retry);
        }
        if (retry >= max_retries_) {
          outstanding_.erase(seq);
          ++lost_;
          lost_cell_->inc();
          if (on_loss_) on_loss_(seq);
          return;
        }
        transmit(seq);
        const SimTime next = std::min(delay + delay, backoff_cap_);
        arm_timeout(seq, retry + 1, next);
      },
      "probe");
}

}  // namespace oo::transport
