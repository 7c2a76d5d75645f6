// Parameterized EQO properties across update intervals and drain rates —
// the Fig. 12 mechanism as invariants rather than one calibration point.
#include <gtest/gtest.h>

#include "core/calendar_queue.h"
#include "core/eqo.h"

#include "common/rng.h"

namespace oo::core {
namespace {

using namespace oo::literals;

class EqoIntervalParam
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(EqoIntervalParam, ErrorBoundedByOneQuantumUnderLineRateDrain) {
  const auto [interval_ns, bw] = GetParam();
  QueueOccupancyEstimator eqo(1, bw, SimTime::nanos(interval_ns));
  const std::int64_t quantum = bytes_in_ns(interval_ns, bw);
  if (static_cast<double>(quantum) !=
      static_cast<double>(interval_ns) * bw / (kBitsPerByte * 1e9)) {
    GTEST_SKIP() << "fractional drain quantum: the estimate drifts by the "
                    "rounding residue between zero-clamps (hardware "
                    "programs integer decrements; pick interval x rate "
                    "accordingly)";
  }
  Rng rng(static_cast<std::uint64_t>(interval_ns));
  // Exact (fractional) ground truth so the bound reflects EQO's own
  // quantization, not the test model's rounding.
  double truth = 0;
  SimTime last = 0_ns;
  for (int i = 1; i <= 3000; ++i) {
    const SimTime now = last + SimTime::nanos(17 + rng.uniform(300));
    const double drained =
        static_cast<double>((now - last).ns()) * bw / (kBitsPerByte * 1e9);
    truth = std::max(0.0, truth - drained);
    eqo.drain_window(0, last, now);
    last = now;
    if (rng.uniform01() < 0.4) {
      const std::int64_t size = 64 + rng.uniform(9000);
      truth += static_cast<double>(size);
      eqo.on_enqueue(0, size);
    }
    // Error never exceeds one decrement quantum plus sub-interval slop.
    const auto truth_int = static_cast<std::int64_t>(truth);
    EXPECT_LE(eqo.error_vs(0, truth_int),
              quantum + bytes_in_ns(300 + interval_ns, bw) + 2)
        << "interval " << interval_ns << " step " << i;
  }
}

TEST_P(EqoIntervalParam, EstimateNeverNegative) {
  const auto [interval_ns, bw] = GetParam();
  QueueOccupancyEstimator eqo(2, bw, SimTime::nanos(interval_ns));
  eqo.on_enqueue(0, 100);
  eqo.drain_window(0, 0_ns, SimTime::micros(100));  // drains far beyond
  EXPECT_EQ(eqo.estimate(0), 0);
  EXPECT_EQ(eqo.estimate(1), 0);
}

TEST_P(EqoIntervalParam, EstimateNeverUnderestimatesWithoutDrain) {
  // Between ticks, the estimate only grows with enqueues: a paused queue's
  // estimate is exact.
  const auto [interval_ns, bw] = GetParam();
  QueueOccupancyEstimator eqo(2, bw, SimTime::nanos(interval_ns));
  std::int64_t truth = 0;
  for (int i = 0; i < 100; ++i) {
    eqo.on_enqueue(1, 1500);  // queue 1 is never the active/draining one
    truth += 1500;
  }
  EXPECT_EQ(eqo.estimate(1), truth);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EqoIntervalParam,
    ::testing::Combine(::testing::Values(40, 50, 100, 200, 400),
                       ::testing::Values(10e9, 100e9, 400e9)),
    [](const auto& info) {
      return "ns" + std::to_string(std::get<0>(info.param)) + "_gbps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) / 1e9));
    });

class CalendarSizeParam : public ::testing::TestWithParam<int> {};

TEST_P(CalendarSizeParam, FullRotationReturnsEveryQueueToActive) {
  const int k = GetParam();
  CalendarQueuePort port(k, 1 << 20);
  // Tag each rank's queue with one packet; after k rotations each queue
  // has been active exactly once and drained in rank order.
  for (int r = 0; r < k; ++r) {
    net::Packet p;
    p.size_bytes = 100;
    p.seq = r;
    ASSERT_EQ(port.try_enqueue(std::move(p), r), EnqueueVerdict::Ok);
  }
  for (int r = 0; r < k; ++r) {
    auto p = port.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, r);
    port.rotate();
  }
  EXPECT_EQ(port.active_index(), 0);
  EXPECT_EQ(port.total_bytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CalendarSizeParam,
                         ::testing::Values(1, 2, 7, 32, 107, 128));

}  // namespace
}  // namespace oo::core
