// Reliable message transfer: the workhorse under the FCT workloads
// (Memcached SETs, allreduce steps, closed-loop TrafficEngine flows).
// Fixed-window, per-packet cumulative acks, timeout retransmission —
// reliability without congestion-control dynamics, so flow completion time
// reflects the fabric (circuit waits, queueing, drops), which is what the
// architecture comparisons in §6 measure. For transport-protocol studies
// use TcpLite.
#pragma once

#include <functional>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"
#include "transport/endpoint.h"

namespace oo::transport {

// Also configures TrimRetxTransfer, whose `rto` backstops full losses.
struct FlowTransferConfig {
  std::int64_t mss = 8900;           // jumbo-frame payload
  int window = 64;                   // packets in flight
  SimTime rto = SimTime::millis(5);  // retransmission timeout
};

class FlowTransfer {
 public:
  // fct = completion (full ack) minus start; retransmissions counted.
  using DoneFn = std::function<void(SimTime fct, std::int64_t retrans)>;

  FlowTransfer(core::Network& net, HostId src, HostId dst,
               std::int64_t bytes, FlowTransferConfig cfg, DoneFn done);

  void start();
  bool finished() const { return finished_; }
  std::int64_t retransmissions() const { return retrans_; }

 private:
  void pump();                     // send while window allows
  void send_segment(std::int64_t seq);
  void on_sender_packet(core::Packet&& p);    // acks
  void on_receiver_packet(core::Packet&& p);  // data
  void arm_rto();
  void on_rto();
  void finish();

  // Potentially overlapping, so the flags below fill its tail padding.
  [[no_unique_address]] FlowEndpoint ep_;
  bool finished_ = false;
  bool blocked_ = false;  // host segment queue backpressure
  std::int64_t total_bytes_;
  FlowTransferConfig cfg_;
  DoneFn done_;

  // Sender state.
  std::int64_t snd_next_ = 0;  // next byte to send
  std::int64_t snd_una_ = 0;   // lowest unacked byte
  std::int64_t retrans_ = 0;
  sim::ScopedEventHandle rto_;

  CumulativeReceiver rcv_;
};

}  // namespace oo::transport
