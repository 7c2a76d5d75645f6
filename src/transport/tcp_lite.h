// TCP-lite: enough TCP machinery for the paper's transport case study
// (Fig. 9) — slow start, AIMD congestion avoidance, fast retransmit with a
// configurable dupack threshold, RTO recovery, an application pacing cap
// (the testbed's iperf3 runs were CPU-bound at ~40 Gbps), and receiver-side
// out-of-order accounting (the "reordering events" the paper counts).
// Spurious fast retransmits under multipath reordering are exactly the
// dynamics this models.
#pragma once

#include <functional>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"
#include "transport/endpoint.h"

namespace oo::transport {

// Segment payload and congestion-window ceiling (MSS units) of every
// TcpLite and TdtcpLite connection.
inline constexpr std::int64_t kTcpMss = 8900;
inline constexpr double kMaxCwnd = 1024.0;

struct TcpConfig {
  int dupack_threshold = 3;
  double init_cwnd = 10.0;      // MSS units
  SimTime rto = SimTime::millis(4);
  BitsPerSec app_rate_cap = 40e9;  // 0 = uncapped
  // reTCP (Mukerjee et al., the §8-cited transport): rescale cwnd at
  // reconfigurations by the bandwidth ratio between circuit-up and
  // circuit-down states instead of re-converging each time. 0 disables;
  // e.g. 10.0 for a 100G-optical / 10G-electrical hybrid.
  double retcp_bandwidth_ratio = 0.0;
};

class TcpLite {
 public:
  using DoneFn = std::function<void(SimTime fct)>;

  // Long-running (iperf-style) flow: sends until stopped.
  TcpLite(core::Network& net, HostId src, HostId dst, TcpConfig cfg);

  // Finite-message mode: send exactly `bytes`, then invoke `done` with the
  // flow completion time. Congestion-controlled elephants (allreduce
  // chunks) use this; mice use FlowTransfer.
  void set_message(std::int64_t bytes, DoneFn done) {
    total_bytes_ = bytes;
    done_ = std::move(done);
  }

  void start();
  void stop() { stopped_ = true; }
  bool finished() const { return finished_; }

  // Goodput over the measured window: acked bytes / elapsed.
  double goodput_bps() const { return ep_.goodput_bps(snd_una_); }
  std::int64_t acked_bytes() const { return snd_una_; }
  std::int64_t reorder_events() const { return reorder_events_; }
  std::int64_t fast_retransmits() const { return fast_retx_; }
  std::int64_t rto_events() const { return rto_events_; }
  std::int64_t retcp_rescalings() const { return retcp_rescalings_; }
  double cwnd() const { return cwnd_; }

 private:
  void pump();
  // Sends the segment at `seq`; returns its payload length.
  std::int64_t send_segment(std::int64_t seq);
  void on_sender_packet(core::Packet&& p);
  void on_receiver_packet(core::Packet&& p);
  void arm_rto();
  void on_rto();

  core::Network& net_;
  FlowEndpoint ep_;
  TcpConfig cfg_;

  // Sender.
  std::int64_t snd_next_ = 0;
  std::int64_t snd_una_ = 0;
  double cwnd_;
  double ssthresh_;
  int dupacks_ = 0;
  std::int64_t recover_ = 0;  // fast-recovery high-water mark
  bool in_recovery_ = false;
  SimTime next_send_allowed_;  // pacing (app CPU bound)
  bool pump_scheduled_ = false;
  bool stopped_ = false;
  bool finished_ = false;
  std::int64_t total_bytes_ = -1;  // -1 = unbounded stream
  DoneFn done_;
  std::int64_t fast_retx_ = 0;
  std::int64_t rto_events_ = 0;

  // Receiver.
  CumulativeReceiver rcv_;
  std::int64_t reorder_events_ = 0;

  // reTCP state: whether the direct circuit was up last slice.
  bool retcp_circuit_up_ = false;
  std::int64_t retcp_rescalings_ = 0;

  sim::ScopedEventHandle rto_;
  sim::ScopedEventHandle pace_;   // pacing pump
  sim::ScopedEventHandle retcp_;  // per-slice reTCP check
};

}  // namespace oo::transport
