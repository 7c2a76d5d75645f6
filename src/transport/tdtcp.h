// TDTCP-lite: time-division TCP for reconfigurable DCNs (the §8-related
// transport the paper's Case II motivates). The connection keeps one
// congestion window per topology phase (the time slice a segment was sent
// in); acks credit the phase that sent the data, and losses halve only
// that phase's window. Under hybrid electrical-optical operation or rotor
// schedules with per-slice bandwidth disparity, one slow phase no longer
// drags down the others — demonstrating how new protocols drop onto the
// OpenOptics stack.
#pragma once

#include <map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"
#include "transport/tcp_lite.h"

namespace oo::transport {

class TdtcpLite {
 public:
  // `cfg.init_cwnd` and `kMaxCwnd` apply per phase. The phase count follows
  // the schedule period (capped at 32; larger periods fold modulo).
  TdtcpLite(core::Network& net, HostId src, HostId dst, TcpConfig cfg);

  void start();
  void stop() { stopped_ = true; }

  double goodput_bps() const { return ep_.goodput_bps(snd_una_); }
  std::int64_t acked_bytes() const { return snd_una_; }
  std::int64_t reorder_events() const { return reorder_events_; }
  std::int64_t fast_retransmits() const { return fast_retx_; }
  int phases() const { return static_cast<int>(cwnd_.size()); }
  double cwnd_of(int phase) const {
    return cwnd_[static_cast<std::size_t>(phase)];
  }

 private:
  int current_phase() const;
  void pump();
  void send_segment(std::int64_t seq, int phase);
  void on_sender_packet(core::Packet&& p);
  void on_receiver_packet(core::Packet&& p);
  void arm_rto();
  void on_rto();
  void release_acked(std::int64_t upto);
  // Runs pump() at `at` unless a pump is already scheduled.
  void schedule_pump(SimTime at);

  core::Network& net_;
  FlowEndpoint ep_;
  TcpConfig cfg_;

  // Per-phase congestion state (TDTCP's core idea).
  std::vector<double> cwnd_;
  std::vector<double> ssthresh_;
  std::vector<std::int64_t> inflight_;  // bytes outstanding per phase

  // Outstanding segments: seq -> (length, phase).
  std::map<std::int64_t, std::pair<std::int64_t, int>> outstanding_;

  std::int64_t snd_next_ = 0;
  std::int64_t snd_una_ = 0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  SimTime next_send_allowed_;
  bool pump_scheduled_ = false;
  bool stopped_ = false;
  std::int64_t fast_retx_ = 0;

  // Receiver.
  CumulativeReceiver rcv_;
  std::int64_t reorder_events_ = 0;

  sim::ScopedEventHandle rto_;
  sim::ScopedEventHandle pump_;  // next-slice or pacing pump
};

}  // namespace oo::transport
