// Golden-output tests for the services/export.h CDF writer: byte-exact
// expected strings computed by hand from the documented percentile
// interpolation, so a formatting or interpolation regression shows up as a
// literal diff instead of a tolerance miss.
#include <gtest/gtest.h>

#include "services/export.h"

namespace oo {
namespace {

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

}  // namespace
}  // namespace oo
