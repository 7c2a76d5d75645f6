#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "core/controller.h"
#include "routing/ta_routing.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"
#include "transport/flow_transfer.h"
#include "transport/tcp_lite.h"
#include "transport/udp_probe.h"

namespace oo::transport {
namespace {

using namespace oo::literals;
using core::Controller;
using core::LookupMode;
using core::MultipathMode;
using core::Network;
using core::NetworkConfig;

// Clos-style electrical-only network: clean, lossless, reorder-free.
std::unique_ptr<Network> make_electrical_net(int tors = 2,
                                             BitsPerSec bw = 100e9) {
  NetworkConfig cfg;
  cfg.num_tors = tors;
  cfg.calendar_mode = false;
  cfg.electrical_bw = bw;
  optics::Schedule sched(tors, 1, 1, SimTime::seconds(3600));
  auto net =
      std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  Controller ctl(*net);
  ctl.deploy_routing(routing::electrical_default(tors), LookupMode::PerHop,
                     MultipathMode::None);
  net->start();
  return net;
}

std::unique_ptr<Network> make_vlb_net(int tors = 8) {
  NetworkConfig cfg;
  cfg.num_tors = tors;
  cfg.calendar_mode = true;
  optics::Schedule sched(tors, 1, topo::round_robin_period(tors), 100_us);
  for (const auto& c : topo::round_robin_1d(tors, 1)) sched.add_circuit(c);
  auto net =
      std::make_unique<Network>(cfg, sched, optics::ocs_emulated());
  Controller ctl(*net);
  ctl.deploy_routing(routing::vlb(net->schedule()), LookupMode::PerHop,
                     MultipathMode::PerPacket);
  net->start();
  return net;
}

TEST(FlowTransfer, CompletesSmallMessage) {
  auto net = make_electrical_net();
  SimTime fct;
  bool done = false;
  FlowTransfer xfer(*net, 0, 1, 4200, {},
                    [&](SimTime t, std::int64_t) {
                      fct = t;
                      done = true;
                    });
  xfer.start();
  net->sim().run_until(50_ms);
  ASSERT_TRUE(done);
  EXPECT_TRUE(xfer.finished());
  EXPECT_GT(fct, SimTime::zero());
  EXPECT_LT(fct, 1_ms);
  EXPECT_EQ(xfer.retransmissions(), 0);
}

TEST(FlowTransfer, CompletesMultiSegmentMessage) {
  auto net = make_electrical_net();
  bool done = false;
  SimTime fct;
  FlowTransfer xfer(*net, 0, 1, 1 << 20, {},
                    [&](SimTime t, std::int64_t) {
                      done = true;
                      fct = t;
                    });
  xfer.start();
  net->sim().run_until(200_ms);
  ASSERT_TRUE(done);
  // 1 MB at 100 Gbps is ~84 us of wire time; with acks and stack delays it
  // should still finish well under 2 ms.
  EXPECT_LT(fct, 2_ms);
}

TEST(FlowTransfer, RecoversFromDropsViaRto) {
  // VLB on a rotor fabric under a burst loses packets to congestion; RTO
  // must recover them.
  auto net = make_vlb_net();
  int done_count = 0;
  std::vector<std::unique_ptr<FlowTransfer>> xfers;
  for (int i = 0; i < 8; ++i) {
    xfers.push_back(std::make_unique<FlowTransfer>(
        *net, 0, 4, 512 << 10, FlowTransferConfig{},
        [&](SimTime, std::int64_t) { ++done_count; }));
  }
  for (auto& x : xfers) x->start();
  net->sim().run_until(500_ms);
  EXPECT_EQ(done_count, 8);
}

TEST(FlowTransfer, FctMeasuredFromStart) {
  auto net = make_electrical_net();
  net->sim().run_until(10_ms);  // start late
  SimTime fct;
  bool done = false;
  FlowTransfer xfer(*net, 0, 1, 1000, {},
                    [&](SimTime t, std::int64_t) {
                      fct = t;
                      done = true;
                    });
  xfer.start();
  net->sim().run_until(60_ms);
  ASSERT_TRUE(done);
  EXPECT_LT(fct, 1_ms);  // relative, not absolute
}

TEST(FlowTransfer, UniqueFlowIdsPerNetwork) {
  auto net = make_electrical_net();
  const FlowId a = net->alloc_flow_id();
  const FlowId b = net->alloc_flow_id();
  EXPECT_NE(a, b);
  // Allocation is a function of the network's own history, not process
  // history: a fresh network replays the same id sequence.
  auto net2 = make_electrical_net();
  EXPECT_EQ(net2->alloc_flow_id(), a);
}

// CumulativeReceiver's runs as a std::map, as they were kept before they
// became a sorted vector: the oracle for next() and receive().
class MapReceiver {
 public:
  bool receive(const core::Packet& p) {
    if (p.trimmed || p.seq < next_) return false;
    if (p.seq > next_) {
      auto [it, inserted] = ooo_.emplace(p.seq, p.seq + p.payload);
      if (!inserted) it->second = std::max(it->second, p.seq + p.payload);
      return true;
    }
    next_ += p.payload;
    for (auto it = ooo_.begin(); it != ooo_.end() && it->first <= next_;
         it = ooo_.erase(it)) {
      next_ = std::max(next_, it->second);
    }
    return false;
  }
  std::int64_t next() const { return next_; }

 private:
  std::int64_t next_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;
};

TEST(CumulativeReceiver, MatchesAMapOfRunsAtEveryArrival) {
  constexpr std::int64_t kBytes = 200'000;
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // The message cut at two segment sizes, so resent segments overlap the
    // runs the first cut left buffered; some arrive twice, some trimmed.
    std::vector<core::Packet> arrivals;
    for (const std::int64_t mss : {std::int64_t{8900},
                                   std::int64_t{1500 + rng.uniform(4000)}}) {
      for (std::int64_t seq = 0; seq < kBytes; seq += mss) {
        core::Packet p;
        p.type = core::PacketType::Data;
        p.seq = seq;
        p.payload = std::min(mss, kBytes - seq);
        p.trimmed = rng.uniform(10) == 0;
        arrivals.push_back(p);
        if (rng.uniform(8) == 0) arrivals.push_back(p);
      }
    }
    // Odd seeds arrive in any order; even seeds reorder within a window of
    // eight, so the in-order prefix advances as it goes.
    const std::size_t window = seed % 2 == 1 ? arrivals.size() : 8;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const std::size_t span = std::min(window, arrivals.size() - i);
      std::swap(arrivals[i],
                arrivals[i + rng.uniform(static_cast<std::uint32_t>(span))]);
    }
    CumulativeReceiver rcv;
    MapReceiver ref;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      ASSERT_EQ(rcv.receive(arrivals[i]), ref.receive(arrivals[i]))
          << "seed " << seed << " arrival " << i;
      ASSERT_EQ(rcv.next(), ref.next()) << "seed " << seed << " arrival " << i;
    }
    EXPECT_GT(rcv.next(), 0) << "seed " << seed;
  }
}

TEST(TcpLite, SaturatesCleanPathUpToCap) {
  auto net = make_electrical_net();
  TcpConfig cfg;
  cfg.app_rate_cap = 40e9;
  TcpLite tcp(*net, 0, 1, cfg);
  tcp.start();
  net->sim().run_until(20_ms);
  // Should converge near the 40 Gbps application cap on a clean path.
  EXPECT_GT(tcp.goodput_bps(), 30e9);
  EXPECT_LE(tcp.goodput_bps(), 41e9);
  EXPECT_EQ(tcp.reorder_events(), 0);
}

TEST(TcpLite, ReorderingTriggersSpuriousFastRetransmits) {
  auto net = make_vlb_net();
  TcpConfig cfg;
  cfg.dupack_threshold = 3;
  TcpLite tcp(*net, 0, 4, cfg);
  tcp.start();
  net->sim().run_until(50_ms);
  // VLB per-packet spraying across slices reorders heavily.
  EXPECT_GT(tcp.reorder_events(), 0);
  EXPECT_GT(tcp.fast_retransmits(), 0);
}

TEST(TcpLite, HigherDupackThresholdReducesRetransmits) {
  auto run = [](int threshold) {
    auto net = make_vlb_net();
    TcpConfig cfg;
    cfg.dupack_threshold = threshold;
    TcpLite tcp(*net, 0, 4, cfg);
    tcp.start();
    net->sim().run_until(200_ms);
    return std::pair<std::int64_t, double>(tcp.fast_retransmits(),
                                           tcp.goodput_bps());
  };
  const auto [fr3, gp3] = run(3);
  const auto [fr64, gp64] = run(64);  // threshold effectively disables FR
  EXPECT_LT(fr64, fr3);  // the Fig. 9 tuning effect
  (void)gp3;
  (void)gp64;
}

TEST(UdpProbe, MeasuresRttOnCleanPath) {
  auto net = make_electrical_net();
  UdpProbe probe(*net, 0, 1, /*interval=*/100_us);
  probe.start();
  net->sim().run_until(20_ms);
  probe.stop();
  EXPECT_GT(probe.sent(), 100);
  // At most a couple of probes still in flight at stop time.
  EXPECT_GE(probe.received(), probe.sent() - 2);
  // RTT ~ 2x(stack + links + fabric) — single-digit microseconds here.
  EXPECT_GT(probe.rtts_us().median(), 2.0);
  EXPECT_LT(probe.rtts_us().median(), 50.0);
}

TEST(UdpProbe, RotorRttsShowCircuitWaits) {
  auto net = make_vlb_net();
  UdpProbe probe(*net, 0, 4, 100_us);
  probe.start();
  net->sim().run_until(50_ms);
  probe.stop();
  EXPECT_GT(probe.received(), 0);
  // Tail RTTs include waiting for circuits: hundreds of microseconds.
  EXPECT_GT(probe.rtts_us().percentile(90), 100.0);
}

}  // namespace
}  // namespace oo::transport
