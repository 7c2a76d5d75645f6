// TCP-lite: enough TCP machinery for the paper's transport case study
// (Fig. 9) — slow start, AIMD congestion avoidance, fast retransmit with a
// configurable dupack threshold, RTO recovery, an application pacing cap
// (the testbed's iperf3 runs were CPU-bound at ~40 Gbps), and receiver-side
// out-of-order accounting (the "reordering events" the paper counts).
// Spurious fast retransmits under multipath reordering are exactly the
// dynamics this models.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"

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
  ~TcpLite();
  TcpLite(const TcpLite&) = delete;
  TcpLite& operator=(const TcpLite&) = delete;

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
  double goodput_bps() const;
  std::int64_t acked_bytes() const { return snd_una_; }
  std::int64_t reorder_events() const { return reorder_events_; }
  std::int64_t fast_retransmits() const { return fast_retx_; }
  std::int64_t rto_events() const { return rto_events_; }
  double cwnd() const { return cwnd_; }

 private:
  void pump();
  void send_segment(std::int64_t seq, bool retransmission);
  void on_sender_packet(core::Packet&& p);
  void on_receiver_packet(core::Packet&& p);
  void arm_rto();
  void on_rto();

  core::Network& net_;
  HostId src_;
  HostId dst_;
  FlowId flow_;
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
  sim::EventHandle rto_timer_;
  SimTime start_time_;
  bool started_ = false;
  bool stopped_ = false;
  bool finished_ = false;
  std::int64_t total_bytes_ = -1;  // -1 = unbounded stream
  DoneFn done_;
  std::int64_t fast_retx_ = 0;
  std::int64_t rto_events_ = 0;

  // Receiver.
  std::int64_t rcv_next_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;  // seq -> end, buffered holes
  std::int64_t reorder_events_ = 0;

  // reTCP state: whether the direct circuit was up last slice.
  bool retcp_circuit_up_ = false;
  std::int64_t retcp_rescalings_ = 0;

 public:
  std::int64_t retcp_rescalings() const { return retcp_rescalings_; }

 private:
  std::shared_ptr<bool> alive_;
};

}  // namespace oo::transport
