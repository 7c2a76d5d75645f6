// The stack side every transport in this directory shares, so each one keeps
// only its algorithm. A FlowEndpoint allocates the flow id, binds the
// sender-side sink at `src` and the receiver-side sink at `dst`, unbinds
// both when it dies, builds the data and ack packets, records the start
// time, and hands the transport's completion to the control lane. A
// CumulativeReceiver is the receive side of the cumulative-ack transports.
//
// Destruction is serial: a transport (and so its endpoint) is destroyed only
// from the control context — TransferPool's deferred reclaim,
// RingAllreduce's step, a bench's or test's own control-queue event — where
// Host::unbind_flow runs inline. A bind need not have landed by then: a
// sharded transport launched on one ToR's lane posts its bind at the other
// host through the barrier, and the endpoint can die (its engine replaced)
// before that bind runs. The endpoint remembers which binds it posted, and
// the unbind of one that has not landed leaves it nothing to install.
// Every timer a transport arms is a sim::ScopedEventHandle member, so no
// event it armed runs after it dies. The sinks hold the transport's
// `this`: an endpoint can be neither copied nor moved, and so neither can
// a transport that holds one.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/network.h"

namespace oo::transport {

// Header bytes each data packet carries on top of its payload; an ack is
// a bare header.
inline constexpr std::int64_t kHeaderBytes = 64;

class FlowEndpoint {
 public:
  using ReceiveFn = core::Host::ReceiveFn;

  // `at_src` receives what reaches src (acks, echoes), `at_dst` what
  // reaches dst (data, probes).
  FlowEndpoint(core::Network& net, HostId src, HostId dst, ReceiveFn at_src,
               ReceiveFn at_dst);
  ~FlowEndpoint();
  FlowEndpoint(const FlowEndpoint&) = delete;
  FlowEndpoint& operator=(const FlowEndpoint&) = delete;

  HostId src() const { return src_; }
  HostId dst() const { return dst_; }
  sim::Simulator& sim() const { return net_.sim(); }

  // Marks the flow started now; false if it already was.
  bool start();
  bool started() const { return started_; }
  SimTime elapsed() const { return net_.sim().now() - start_time_; }
  // `acked` bytes over the time since start().
  double goodput_bps(std::int64_t acked) const;

  // A data segment [seq, seq + payload) toward dst.
  core::Packet data(std::int64_t seq, std::int64_t payload) const;
  // A bare-header ack toward src carrying `seq`.
  core::Packet ack(std::int64_t seq) const;
  // Through src's stack; false when its segment queue rejected the packet.
  bool send_data(core::Packet&& p) {
    return net_.host(src_).send(std::move(p));
  }
  // Through dst's stack.
  void send_ack(core::Packet&& p) { net_.host(dst_).send(std::move(p)); }

  // Runs done(args...) on the control lane, tagged `tag`; nothing when
  // `done` is empty. Completions mutate workload aggregates and may launch
  // or destroy transports — control-plane state — but the last ack lands on
  // the sender ToR's lane when sharded, so the call is posted through the
  // barrier there. It may destroy the transport, so the closure holds
  // copies of `done` and its arguments, never the transport.
  template <typename... A>
  void complete(const std::function<void(A...)>& done, const char* tag,
                std::type_identity_t<A>... args) {
    if (!done) return;
    net_.sim().run_on(
        sim::Simulator::kControlLane, [done, args...]() { done(args...); },
        tag);
  }

 private:
  core::Network& net_;
  FlowId flow_;
  SimTime start_time_;
  HostId src_;
  HostId dst_;
  bool started_ = false;
  bool src_bind_posted_;
  bool dst_bind_posted_;
};

// The in-order prefix plus the out-of-order runs buffered past it
// (multipath fabrics reorder heavily; discarding would conflate reordering
// with loss). The runs are kept by start, one per start, and may overlap.
class CumulativeReceiver {
 public:
  // Takes a data packet's bytes; true when they arrived past the in-order
  // prefix, the reordering event Fig. 9(b) counts. A trimmed packet (the
  // header-only survivor of a Trim congestion response) carries none.
  bool receive(const core::Packet& p);
  // The cumulative ack: every byte below it has arrived.
  std::int64_t next() const { return next_; }

 private:
  struct Run {
    std::int64_t start;
    std::int64_t end;
  };
  std::int64_t next_ = 0;
  std::vector<Run> ooo_;  // sorted by start
};

}  // namespace oo::transport
