#include "transport/udp_probe.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace oo::transport {

using core::Packet;
using core::PacketType;

UdpProbe::UdpProbe(core::Network& net, HostId pinger, HostId responder,
                   SimTime interval, std::int64_t size_bytes)
    : net_(net),
      ep_(net, pinger, responder, [this](Packet&& p) { on_echo(p); },
          [this](Packet&& p) {
            // Echo the probe back, preserving its tx timestamp and seq.
            Packet echo = ep_.ack(p.seq);
            echo.type = PacketType::Probe;
            echo.size_bytes = p.size_bytes;
            echo.probe_echo = p.probe_echo;
            ep_.send_ack(std::move(echo));
          }),
      interval_(interval),
      size_bytes_(size_bytes),
      lost_cell_(&net.sim().metrics().counter("probe.lost")),
      // Labeled by prober ToR so the (non-atomic) sampler is only ever
      // touched from that node's lane — concurrent probes never share it.
      rtt_cell_(&net.sim().metrics().histogram(
          "probe.rtt_us", {{"node", std::to_string(net.tor_of(pinger))}})) {
  if (size_bytes < 0 || size_bytes > net::kMaxPacketBytes) {
    throw std::invalid_argument("udp probe: a " + std::to_string(size_bytes) +
                                " B probe does not fit a packet");
  }
}

void UdpProbe::start() {
  timer_ = net_.sim().schedule_every(net_.sim().now() + interval_, interval_,
                                     [this]() { send_probe(); });
  send_probe();
}

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
  if (timeout_ > SimTime::zero()) arm_timeout(seq, 0, timeout_);
}

void UdpProbe::transmit(std::int64_t seq) {
  Packet p = ep_.data(seq, 0);
  p.type = PacketType::Probe;
  p.size_bytes = size_bytes_;
  p.probe_echo = net_.sim().now();
  if (auto* rec = net_.sim().recorder()) {
    rec->probe_send(net_.sim().now(), net_.tor_of(ep_.src()),
                    net_.tor_of(ep_.dst()), seq);
  }
  ep_.send_data(std::move(p));
}

void UdpProbe::on_echo(const Packet& p) {
  if (timeout_ > SimTime::zero()) {
    // A duplicate echo (original answered after a retransmission already
    // went out) still lands here; only the first one per seq counts.
    auto it = pending_.find(p.seq);
    if (it == pending_.end() || it->second.echoed) return;
    it->second.echoed = true;
  }
  ++received_;
  const SimTime rtt = net_.sim().now() - p.probe_echo;
  rtts_us_.add(rtt.us());
  rtt_cell_->add(rtt.us());
  if (auto* rec = net_.sim().recorder()) {
    rec->probe_echo(net_.sim().now(), net_.tor_of(ep_.src()),
                    net_.tor_of(ep_.dst()), p.seq, rtt.ns());
  }
}

void UdpProbe::arm_timeout(std::int64_t seq, int retry, SimTime delay) {
  pending_[seq].timeout = net_.sim().schedule_in(
      delay, [this, seq, retry, delay]() { on_timeout(seq, retry, delay); },
      "probe");
}

void UdpProbe::on_timeout(std::int64_t seq, int retry, SimTime delay) {
  const auto it = pending_.find(seq);
  if (it->second.echoed) {
    pending_.erase(it);
    return;
  }
  if (auto* rec = net_.sim().recorder()) {
    rec->probe_timeout(net_.sim().now(), net_.tor_of(ep_.src()),
                       net_.tor_of(ep_.dst()), seq, retry);
  }
  if (retry >= max_retries_) {
    pending_.erase(it);
    ++lost_;
    lost_cell_->inc();
    if (on_loss_) on_loss_(seq);  // may destroy this probe
    return;
  }
  transmit(seq);
  arm_timeout(seq, retry + 1, std::min(delay + delay, backoff_cap_));
}

}  // namespace oo::transport
