// Differential test: core::CalendarQueuePort, which keeps a port's packets
// in one slab threaded by per-slot links, against reference::
// CalendarQueuePort, K FIFO queues (calendar_reference.h). Both are driven
// through the same seeded random operations, and after every operation
// they must agree on the verdict, the packet returned, every day's length,
// bytes and pause state, and the totals and peaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "calendar_reference.h"
#include "common/rng.h"
#include "core/calendar_queue.h"

namespace oo::core {
namespace {

// Day capacity: a day holds two to four of the 64 B..9 KB packets, so
// byte-capacity rejections are common.
constexpr std::int64_t kDayBytes = 20000;

// Same id and size, and the same route at the same cursor.
void expect_same_packet(const net::Packet& got, const net::Packet& want) {
  ASSERT_EQ(got.id, want.id);
  ASSERT_EQ(got.size_bytes, want.size_bytes);
  ASSERT_EQ(got.source_route.size(), want.source_route.size());
  for (std::size_t i = 0; i < got.source_route.size(); ++i) {
    ASSERT_EQ(got.source_route[i].egress, want.source_route[i].egress);
    ASSERT_EQ(got.source_route[i].dep_slice, want.source_route[i].dep_slice);
  }
  ASSERT_EQ(got.has_source_route(), want.has_source_route());
  if (got.has_source_route()) {
    ASSERT_EQ(got.next_hop().egress, want.next_hop().egress);
  }
}

void expect_same_state(const CalendarQueuePort& port,
                       const reference::CalendarQueuePort& ref) {
  ASSERT_EQ(port.active_index(), ref.active_index());
  for (int r = 0; r < ref.num_queues(); ++r) {
    ASSERT_EQ(port.queue_at_rank(r).size(), ref.queue_at_rank(r).size())
        << "rank " << r;
    ASSERT_EQ(port.queue_at_rank(r).bytes(), ref.queue_at_rank(r).bytes())
        << "rank " << r;
    ASSERT_EQ(port.queue_at_rank(r).paused(), ref.queue_at_rank(r).paused())
        << "rank " << r;
  }
  ASSERT_EQ(port.total_bytes(), ref.total_bytes());
  ASSERT_EQ(port.total_packets(), ref.total_packets());
  ASSERT_EQ(port.peak_total_bytes(), ref.peak_total_bytes());
  ASSERT_EQ(port.rank_overflows(), ref.rank_overflows());
  ASSERT_EQ(port.full_rejects(), ref.full_rejects());
}

net::Packet random_packet(Rng& rng, PacketId id) {
  net::Packet p;
  p.id = id;
  p.size_bytes = 64 + static_cast<std::int32_t>(rng.uniform(9000));
  if (rng.uniform(4) == 0) {
    // A source route, partly taken, rides through the slot with its cursor.
    std::vector<net::SourceHop> hops(1 + rng.uniform(4));
    for (auto& h : hops) {
      h = {static_cast<PortId>(rng.uniform(8)),
           static_cast<SliceId>(rng.uniform(128))};
    }
    p.source_route.assign(hops);
    for (std::uint32_t k = rng.uniform(2); k > 0; --k) p.pop_hop();
  }
  return p;
}

class CalendarOracleParam : public ::testing::TestWithParam<int> {};

TEST_P(CalendarOracleParam, MatchesKFifoQueuesUnderRandomOps) {
  const int k = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 1000 + static_cast<std::uint64_t>(k));
    CalendarQueuePort port(k, kDayBytes);
    reference::CalendarQueuePort ref(k, kDayBytes);
    PacketId next_id = 1;
    std::int64_t most_held = 0;
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      const double x = rng.uniform01();
      if (x < 0.45) {
        // Ranks -1..k: both overflows and every day.
        const int rank =
            static_cast<int>(rng.uniform(static_cast<std::uint32_t>(k + 2))) -
            1;
        net::Packet p = random_packet(rng, next_id++);
        net::Packet copy = p;
        const EnqueueVerdict verdict = port.try_enqueue(std::move(p), rank);
        ASSERT_EQ(verdict, ref.try_enqueue(net::Packet(copy), rank));
        // A rejected packet is left with its caller as it was.
        if (verdict != EnqueueVerdict::Ok) {
          ASSERT_NO_FATAL_FAILURE(expect_same_packet(p, copy));
        }
      } else if (x < 0.75) {
        auto got = port.dequeue();
        auto want = ref.dequeue();
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          ASSERT_NO_FATAL_FAILURE(expect_same_packet(*got, *want));
        }
      } else if (x < 0.85) {
        const net::Packet* got = port.peek();
        const net::Packet* want = ref.peek();
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (got) {
          ASSERT_NO_FATAL_FAILURE(expect_same_packet(*got, *want));
        }
      } else if (x < 0.995) {
        port.rotate();
        ref.rotate();
      } else {
        const auto got = port.drain_all();
        const auto want = ref.drain_all();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NO_FATAL_FAILURE(expect_same_packet(got[i], want[i]));
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_state(port, ref));
      // Every freed slot is reused before a new one is filled.
      most_held = std::max(most_held, port.total_packets());
      ASSERT_EQ(port.slots(), static_cast<std::size_t>(most_held));
    }
    // The sequence reached both kinds of rejection.
    EXPECT_GT(ref.rank_overflows(), 0);
    EXPECT_GT(ref.full_rejects(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CalendarOracleParam,
                         ::testing::Values(1, 2, 8, 107, 128));

}  // namespace
}  // namespace oo::core
