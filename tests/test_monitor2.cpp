// Extended monitoring: utilization series.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "services/monitor.h"
#include "workload/kv.h"

namespace oo::services {
namespace {

using namespace oo::literals;

TEST(Monitor2, UtilizationTracksLoad) {
  arch::Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  Monitor mon(*inst.net, 500_us);
  mon.start();
  workload::KvWorkload kv(*inst.net, 0, {1, 2, 3}, 200_us);
  kv.start();
  inst.run_for(50_ms);
  kv.stop();
  // Node 0 receives acks only (light); clients 1-3 carry the SETs.
  const auto& u1 = mon.utilization_samples(1);
  ASSERT_GT(u1.count(), 10u);
  EXPECT_GT(u1.mean(), 0.0);
  EXPECT_LE(u1.max(), 1.0 + 1e-9);  // never beyond line rate
}

TEST(Monitor2, IdleFabricShowsZeroUtilization) {
  arch::Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  Monitor mon(*inst.net, 500_us);
  mon.start();
  inst.run_for(10_ms);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_DOUBLE_EQ(mon.utilization_samples(n).max(), 0.0);
  }
}

}  // namespace
}  // namespace oo::services
