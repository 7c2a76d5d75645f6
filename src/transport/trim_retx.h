// Trim-aware reliable transfer (NDP-style, the receiver-driven loss
// recovery Opera's packet trimming assumes): when the fabric trims a
// payload, the surviving 64 B header still reaches the receiver, which
// immediately NACKs the sequence; the sender retransmits right away
// instead of waiting out a retransmission timeout. Pairs with
// CongestionResponse::Trim to make trimming a ~RTT-cost signal rather
// than a loss.
#pragma once

#include <functional>
#include <set>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"
#include "transport/endpoint.h"
#include "transport/flow_transfer.h"

namespace oo::transport {

class TrimRetxTransfer {
 public:
  using DoneFn = std::function<void(SimTime fct, std::int64_t retrans)>;

  TrimRetxTransfer(core::Network& net, HostId src, HostId dst,
                   std::int64_t bytes, FlowTransferConfig cfg, DoneFn done);

  void start();
  bool finished() const { return finished_; }
  std::int64_t nacks_received() const { return nacks_; }
  std::int64_t prompt_retransmissions() const { return prompt_retx_; }
  std::int64_t rto_events() const { return rto_events_; }

 private:
  void pump();
  void send_segment(std::int64_t seq);
  void on_sender_packet(core::Packet&& p);
  void on_receiver_packet(core::Packet&& p);
  void arm_rto();
  void on_rto();
  void finish();

  core::Network& net_;
  FlowEndpoint ep_;
  std::int64_t total_bytes_;
  FlowTransferConfig cfg_;
  DoneFn done_;

  // Sender: un-acked segment starts still outstanding.
  std::set<std::int64_t> outstanding_;
  std::int64_t snd_next_ = 0;
  std::int64_t nacks_ = 0;
  std::int64_t prompt_retx_ = 0;
  std::int64_t rto_events_ = 0;
  sim::ScopedEventHandle rto_;
  bool finished_ = false;
};

}  // namespace oo::transport
