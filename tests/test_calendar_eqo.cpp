#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "core/calendar_queue.h"
#include "core/eqo.h"
#include "core/guardband.h"
#include "core/sync.h"

namespace oo::core {
namespace {

using namespace oo::literals;

net::Packet make_packet(std::int64_t bytes) {
  net::Packet p;
  p.size_bytes = bytes;
  return p;
}

TEST(CalendarQueue, OnlyActiveQueueUnpaused) {
  CalendarQueuePort port(4, 1 << 20);
  EXPECT_FALSE(port.active_queue().paused());
  for (int r = 1; r < 4; ++r) {
    EXPECT_TRUE(port.queue_at_rank(r).paused()) << r;
  }
}

TEST(CalendarQueue, RankMapsToFutureQueue) {
  CalendarQueuePort port(4, 1 << 20);
  EXPECT_EQ(port.try_enqueue(make_packet(100), 2), EnqueueVerdict::Ok);
  EXPECT_EQ(port.queue_at_rank(2).bytes(), 100);
  EXPECT_EQ(port.active_queue().bytes(), 0);
  // Two rotations later that queue is active.
  port.rotate();
  port.rotate();
  EXPECT_EQ(port.active_queue().bytes(), 100);
  EXPECT_FALSE(port.active_queue().paused());
}

TEST(CalendarQueue, RotationWrapsAround) {
  CalendarQueuePort port(3, 1 << 20);
  EXPECT_EQ(port.active_index(), 0);
  port.rotate();
  port.rotate();
  port.rotate();
  EXPECT_EQ(port.active_index(), 0);
}

TEST(CalendarQueue, RankOverflow) {
  CalendarQueuePort port(4, 1 << 20);
  EXPECT_EQ(port.try_enqueue(make_packet(100), 4),
            EnqueueVerdict::RankOverflow);
  EXPECT_EQ(port.try_enqueue(make_packet(100), -1),
            EnqueueVerdict::RankOverflow);
  EXPECT_EQ(port.rank_overflows(), 2);
}

TEST(CalendarQueue, CapacityFull) {
  CalendarQueuePort port(2, 1000);
  EXPECT_EQ(port.try_enqueue(make_packet(800), 0), EnqueueVerdict::Ok);
  EXPECT_EQ(port.try_enqueue(make_packet(800), 0), EnqueueVerdict::Full);
  EXPECT_EQ(port.full_rejects(), 1);
  // Other queue unaffected.
  EXPECT_EQ(port.try_enqueue(make_packet(800), 1), EnqueueVerdict::Ok);
  EXPECT_EQ(port.total_bytes(), 1600);
  EXPECT_EQ(port.peak_total_bytes(), 1600);
}

TEST(CalendarQueue, PausedQueueHoldsPackets) {
  CalendarQueuePort port(2, 1 << 20);
  port.try_enqueue(make_packet(100), 1);
  EXPECT_TRUE(port.queue_at_rank(1).paused());
  EXPECT_FALSE(port.dequeue().has_value());  // only the active queue emits
  EXPECT_EQ(port.queue_at_rank(1).size(), 1u);
  port.rotate();
  EXPECT_TRUE(port.dequeue().has_value());
}

TEST(CalendarQueue, RunningTotalsMatchAFullScan) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const int k = 1 + static_cast<int>(rng.uniform(16));
    CalendarQueuePort port(k, 20000);
    std::int64_t peak = 0;
    for (int step = 0; step < 4000; ++step) {
      const double x = rng.uniform01();
      if (x < 0.5) {
        // Ranks -1..k: both overflows and every queue; 64 B..9 KB packets
        // against a 20 KB capacity, so some are rejected full.
        port.try_enqueue(make_packet(64 + rng.uniform(9000)),
                         static_cast<int>(rng.uniform(
                             static_cast<std::uint32_t>(k + 2))) - 1);
      } else if (x < 0.8) {
        port.dequeue();
      } else if (x < 0.98) {
        port.rotate();
      } else {
        port.drain_all();
      }
      std::int64_t bytes = 0, packets = 0;
      for (int r = 0; r < k; ++r) {
        bytes += port.queue_at_rank(r).bytes();
        packets += static_cast<std::int64_t>(port.queue_at_rank(r).size());
        ASSERT_EQ(port.queue_at_rank(r).paused(), r != 0) << "step " << step;
      }
      peak = std::max(peak, bytes);
      ASSERT_EQ(port.total_bytes(), bytes) << "seed " << seed << " step " << step;
      ASSERT_EQ(port.total_packets(), packets) << "seed " << seed;
      ASSERT_EQ(port.peak_total_bytes(), peak) << "seed " << seed;
    }
  }
}

TEST(Eqo, TracksEnqueues) {
  QueueOccupancyEstimator eqo(4, 100e9, 50_ns);
  eqo.on_enqueue(1, 1500);
  eqo.on_enqueue(1, 500);
  EXPECT_EQ(eqo.estimate(1), 2000);
  EXPECT_EQ(eqo.estimate(0), 0);
}

TEST(Eqo, TickDrainsActiveAtLineRate) {
  QueueOccupancyEstimator eqo(2, 100e9, 50_ns);
  eqo.on_enqueue(0, 10000);
  eqo.on_tick(0);  // one 50 ns tick at 100 Gbps = 625 B
  EXPECT_EQ(eqo.estimate(0), 10000 - 625);
}

TEST(Eqo, ClampsAtZero) {
  QueueOccupancyEstimator eqo(2, 100e9, 50_ns);
  eqo.on_enqueue(0, 100);
  eqo.on_tick(0);
  EXPECT_EQ(eqo.estimate(0), 0);
  eqo.on_tick(0);
  EXPECT_EQ(eqo.estimate(0), 0);
}

TEST(Eqo, DrainWindowMatchesTickSequence) {
  QueueOccupancyEstimator a(1, 100e9, 50_ns);
  QueueOccupancyEstimator b(1, 100e9, 50_ns);
  a.on_enqueue(0, 50000);
  b.on_enqueue(0, 50000);
  // a: 10 discrete ticks; b: one lazy window covering (0, 500ns].
  for (int i = 0; i < 10; ++i) a.on_tick(0);
  b.drain_window(0, 0_ns, 500_ns);
  EXPECT_EQ(a.estimate(0), b.estimate(0));
}

TEST(Eqo, DrainWindowTickGridAlignment) {
  QueueOccupancyEstimator eqo(1, 100e9, 50_ns);
  eqo.on_enqueue(0, 10000);
  // (10ns, 49ns] contains no grid point -> no drain.
  eqo.drain_window(0, 10_ns, 49_ns);
  EXPECT_EQ(eqo.estimate(0), 10000);
  // (49ns, 51ns] contains the 50ns tick -> one drain.
  eqo.drain_window(0, 49_ns, 51_ns);
  EXPECT_EQ(eqo.estimate(0), 10000 - 625);
}

TEST(Eqo, ErrorBoundedByOneTick) {
  // Property (Fig. 12): if the queue truly drains at line rate, the
  // estimate lags by at most one tick's worth of bytes.
  QueueOccupancyEstimator eqo(1, 100e9, 50_ns);
  std::int64_t truth = 0;
  SimTime last = 0_ns;
  for (int i = 1; i <= 100; ++i) {
    const SimTime now = SimTime::nanos(i * 37);  // not tick-aligned
    // True queue drains at exact line rate.
    const std::int64_t drained = bytes_in_ns((now - last).ns(), 100e9);
    truth = std::max<std::int64_t>(0, truth - drained);
    eqo.drain_window(0, last, now);
    last = now;
    if (i % 3 == 0) {
      truth += 1500;
      eqo.on_enqueue(0, 1500);
    }
    EXPECT_LE(eqo.error_vs(0, truth), 625 + 46)  // tick + sub-ns slop
        << "at i=" << i;
  }
}

TEST(Guardband, PaperDerivation) {
  // §7: 34 + 58 + 56 = 148 ns analytic, 200 ns with headroom, 2 us slice.
  const auto g = derive_guardband(GuardbandInputs{});
  EXPECT_EQ(g.rotation_variance, 34_ns);
  EXPECT_EQ(g.eqo_delay, 58_ns);
  EXPECT_EQ(g.sync_window, 56_ns);
  EXPECT_EQ(g.analytic, 148_ns);
  EXPECT_EQ(g.guardband, 200_ns);
  EXPECT_EQ(g.min_slice, 2_us);
}

TEST(Guardband, ScalesWithInputs) {
  GuardbandInputs in;
  in.sync_error = 100_ns;  // worse sync -> larger guardband
  const auto g = derive_guardband(in);
  EXPECT_GT(g.guardband, 200_ns);
  EXPECT_EQ(g.min_slice, g.guardband * 10);
}

TEST(Sync, OffsetsWithinBound) {
  SyncModel sync(64, 28_ns, Rng{99});
  for (NodeId n = 0; n < 64; ++n) {
    EXPECT_LE(sync.offset(n).ns(), 28);
    EXPECT_GE(sync.offset(n).ns(), -28);
  }
  EXPECT_EQ(sync.local_view(0, 100_ns), 100_ns + sync.offset(0));
}

TEST(Sync, Deterministic) {
  SyncModel a(8, 28_ns, Rng{5});
  SyncModel b(8, 28_ns, Rng{5});
  for (NodeId n = 0; n < 8; ++n) EXPECT_EQ(a.offset(n), b.offset(n));
}

TEST(Guardband, RejectsMeaninglessInputs) {
  GuardbandInputs in;
  in.line_rate = 0;
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.line_rate = -100e9;
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.eqo_error_bytes = -1;
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.rotation_variance = SimTime::nanos(-1);
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.sync_error = SimTime::nanos(-1);
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.headroom = 0.5;  // guardband below the analytic sum
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.headroom = std::numeric_limits<double>::infinity();
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
  in = GuardbandInputs{};
  in.duty_factor = 0;
  EXPECT_THROW(derive_guardband(in), std::invalid_argument);
}

TEST(Guardband, AcceptsBoundaryInputs) {
  GuardbandInputs in;
  in.headroom = 1.0;     // no headroom is meaningful (analytic budget)
  in.duty_factor = 1;    // slice == guardband: all guard, still legal
  in.eqo_error_bytes = 0;
  in.rotation_variance = 0_ns;
  in.sync_error = 0_ns;
  EXPECT_NO_THROW(derive_guardband(in));
}

TEST(Clock, DriftAccumulatesLazilyOnRead) {
  ClockModel c(4, 28_ns, Rng{9});
  const SimTime base = c.offset(1);
  c.set_drift_ppm(1, 1000.0, 0_ns);  // 1000 ppm = 1 ns per us
  EXPECT_EQ(c.offset(1, 1_ms), base + 1_us);
  EXPECT_EQ(c.offset(1, 2_ms), base + 2_us);
  // Reads are pure: sampling did not advance the reference.
  EXPECT_EQ(c.offset(1, 1_ms), base + 1_us);
  // Other nodes hold their static residuals.
  EXPECT_EQ(c.offset(2, 2_ms), c.offset(2));
  EXPECT_EQ(c.drift_ppm(1), 1000.0);
  EXPECT_EQ(c.drift_ppm(2), 0.0);
}

TEST(Clock, StepJumpsAndResyncRedisciplines) {
  ClockModel c(4, 28_ns, Rng{9});
  const SimTime residual = c.offset(1);
  c.step(1, 5_us, 10_us);
  EXPECT_EQ(c.offset(1, 10_us), residual + 5_us);
  EXPECT_FALSE(c.within_bound(1, 10_us));
  c.resync(1, 20_us);
  EXPECT_EQ(c.offset(1, 20_us), residual);
  EXPECT_TRUE(c.within_bound(1, 20_us));
  EXPECT_EQ(c.last_resync(1), 20_us);
}

TEST(Clock, DriftSurvivesResyncButOffsetSnaps) {
  ClockModel c(2, 28_ns, Rng{3});
  const SimTime residual = c.offset(0);
  c.set_drift_ppm(0, 2000.0, 0_ns);
  EXPECT_EQ(c.offset(0, 1_ms), residual + 2_us);
  c.resync(0, 1_ms);
  // The beacon snaps the accumulated error, but the oscillator still runs
  // fast: error re-accumulates from the residual.
  EXPECT_EQ(c.offset(0, 1_ms), residual);
  EXPECT_EQ(c.offset(0, 2_ms), residual + 2_us);
}

TEST(Clock, RotationTimeSolvesFixedPoint) {
  ClockModel c(2, 28_ns, Rng{11});
  // Zero drift: exactly the historical boundary + offset convention.
  EXPECT_EQ(c.rotation_time(0, 100_us, 100_us), 100_us + c.offset(0));
  // Under drift the firing instant satisfies t = target + offset(t) to
  // within the fixed-point iteration's sub-ns convergence.
  c.set_drift_ppm(0, 8000.0, 0_ns);
  const SimTime t = c.rotation_time(0, 100_us, 100_us);
  const SimTime err = t - (100_us + c.offset(0, t));
  EXPECT_LE(std::abs(err.ns()), 1);
}

TEST(Clock, JitterBoundedDeterministicAndPure) {
  ClockModel a(4, 28_ns, Rng{17});
  ClockModel b(4, 28_ns, Rng{17});
  const SimTime base = a.offset(0);
  a.set_jitter(0, 10_ns);
  b.set_jitter(0, 10_ns);
  for (int i = 0; i < 64; ++i) {
    const SimTime now = SimTime::nanos(i * 777);
    const SimTime off = a.offset(0, now);
    EXPECT_LE(std::abs((off - base).ns()), 10) << "at " << now.ns();
    EXPECT_EQ(off, b.offset(0, now)) << "at " << now.ns();
  }
  // Piecewise-constant: samples inside one ~1 us bucket agree.
  EXPECT_EQ(a.offset(0, SimTime::nanos(5000)),
            a.offset(0, SimTime::nanos(5100)));
}

TEST(Clock, BeaconBlockingAndOutageWindows) {
  ClockModel c(4, 28_ns, Rng{7});
  EXPECT_FALSE(c.beacons_blocked(1, 0_ns));
  c.block_beacons(1, 10_us);
  EXPECT_TRUE(c.beacons_blocked(1, 5_us));
  EXPECT_FALSE(c.beacons_blocked(1, 10_us));  // half-open window
  EXPECT_FALSE(c.beacons_blocked(2, 5_us));   // per-node isolation
  // A shorter re-block never shrinks the active window.
  c.block_beacons(1, 2_us);
  EXPECT_TRUE(c.beacons_blocked(1, 5_us));
  // Fabric-wide outage blocks everyone.
  c.set_outage(20_us);
  EXPECT_TRUE(c.beacons_blocked(2, 15_us));
  EXPECT_TRUE(c.outage(15_us));
  EXPECT_FALSE(c.outage(20_us));
}

}  // namespace
}  // namespace oo::core
