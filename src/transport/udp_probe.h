// UDP RTT probing (Fig. 13): a pinger sends fixed-size datagrams at a fixed
// interval; the responder echoes them back; per-packet RTTs accumulate in a
// percentile sampler. Mirrors the "Realizing RotorNet" UDP latency
// experiment OpenOptics reproduces for emulation-accuracy validation.
//
// Loss detection is opt-in (set_timeout): an unanswered probe is retried
// with capped exponential backoff and declared lost after the retry budget
// runs out, feeding the `probe.lost` counter, the flight-recorder probe
// track, and an optional loss hook (the health scanner's evidence source).
// With no timeout armed the probe is fire-and-forget and schedules nothing
// beyond the send timer — exactly the legacy behavior, byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/ids.h"
#include "common/stats.h"
#include "common/time.h"
#include "core/network.h"
#include "transport/endpoint.h"

namespace oo::transport {

class UdpProbe {
 public:
  UdpProbe(core::Network& net, HostId pinger, HostId responder,
           SimTime interval, std::int64_t size_bytes = 1500);

  void start();
  void stop() { timer_.cancel(); }

  // Arm per-probe loss detection. A probe unanswered after `timeout` is
  // retransmitted with the timeout doubling each retry, capped at
  // `backoff_cap`; after `max_retries` retransmissions the probe counts
  // lost. Call before start(); timeout <= 0 disables (the default).
  void set_timeout(SimTime timeout, SimTime backoff_cap, int max_retries = 3);

  // Invoked once per lost probe (after the retry budget is exhausted), from
  // the timeout event's context. Survives until the probe is destroyed.
  using LossFn = std::function<void(std::int64_t seq)>;
  void set_loss_hook(LossFn fn) { on_loss_ = std::move(fn); }

  const PercentileSampler& rtts_us() const { return rtts_us_; }
  std::int64_t sent() const { return sent_; }
  std::int64_t received() const { return received_; }
  std::int64_t lost() const { return lost_; }

 private:
  void send_probe();
  void transmit(std::int64_t seq);
  void on_echo(const core::Packet& p);
  void arm_timeout(std::int64_t seq, int retry, SimTime delay);
  void on_timeout(std::int64_t seq, int retry, SimTime delay);

  core::Network& net_;
  FlowEndpoint ep_;  // src = pinger, dst = responder
  SimTime interval_;
  std::int64_t size_bytes_;
  sim::ScopedEventHandle timer_;
  PercentileSampler rtts_us_;
  std::int64_t sent_ = 0;
  std::int64_t received_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t next_seq_ = 0;
  SimTime timeout_ = SimTime::zero();   // <= 0: loss detection off
  SimTime backoff_cap_ = SimTime::zero();
  int max_retries_ = 3;
  // Each probe whose timeout is armed, by seq, until that timeout fires
  // for the last time. An echo only marks it: the timeout still fires.
  struct Pending {
    bool echoed = false;
    sim::ScopedEventHandle timeout;
  };
  std::unordered_map<std::int64_t, Pending> pending_;
  LossFn on_loss_;
  telemetry::Counter* lost_cell_;
  PercentileSampler* rtt_cell_;
};

}  // namespace oo::transport
