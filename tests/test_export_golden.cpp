// Golden-output tests for the services/export.h CSV writers: byte-exact
// expected strings computed by hand from the documented percentile
// interpolation, so a formatting or interpolation regression shows up as a
// literal diff instead of a tolerance miss.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "routing/to_routing.h"
#include "services/export.h"
#include "services/failure_recovery.h"

namespace oo {
namespace {

using namespace oo::literals;

TEST(ExportGolden, CdfCsv) {
  PercentileSampler s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  // 3 points hit quantiles 0, 0.5, 1. p50 interpolates rank 1.5 over the
  // sorted samples: 2 * 0.5 + 3 * 0.5 = 2.5.
  EXPECT_EQ(services::cdf_csv(s, 3, "v"),
            "v,quantile\n"
            "1,0\n"
            "2.5,0.5\n"
            "4,1\n");
}

TEST(ExportGolden, CdfCsvDegenerate) {
  PercentileSampler empty;
  EXPECT_EQ(services::cdf_csv(empty, 3, "v"), "v,quantile\n");
  PercentileSampler one;
  one.add(7.0);
  EXPECT_EQ(services::cdf_csv(one, 2, "v"), "v,quantile\n7,0\n7,1\n");
}

TEST(ExportGolden, RobustnessCsvFreshRecovery) {
  arch::Params p;
  p.tors = 4;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  services::FailureRecovery recovery(
      *inst.net, *inst.ctl,
      [](const optics::Schedule& s) { return routing::direct_to(s); });
  // Never started, nothing ran: every counter is zero and availability is
  // exactly 1 over the empty horizon.
  EXPECT_EQ(services::robustness_csv(recovery, inst.net->optical()),
            "metric,value\n"
            "delivered,0\n"
            "drops_failed,0\n"
            "drops_corrupt,0\n"
            "drops_no_circuit,0\n"
            "drops_guard,0\n"
            "drops_boundary,0\n"
            "reconfig_stalls,0\n"
            "port_downs,0\n"
            "port_ups,0\n"
            "recoveries,0\n"
            "deploy_retries,0\n"
            "detect_latency_us_p50,0\n"
            "detect_latency_us_p99,0\n"
            "mttr_us_p50,0\n"
            "mttr_us_p99,0\n"
            "degraded_time_us,0\n"
            "availability,1\n");
}

}  // namespace
}  // namespace oo
