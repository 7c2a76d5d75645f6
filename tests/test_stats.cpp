#include "common/stats.h"

#include <gtest/gtest.h>

namespace oo {
namespace {

TEST(RunningStats, Basic) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(PercentileSampler, ExactPercentiles) {
  PercentileSampler p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 0.01);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.01);
}

TEST(PercentileSampler, UnsortedInput) {
  PercentileSampler p;
  for (double x : {5.0, 1.0, 9.0, 3.0, 7.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 9.0);
}

TEST(PercentileSampler, AddAfterQuery) {
  PercentileSampler p;
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.max(), 2.0);
  p.add(10.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(p.max(), 10.0);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
}

TEST(PercentileSampler, Mean) {
  PercentileSampler p;
  for (double x : {1.0, 2.0, 3.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.mean(), 2.0);
}

TEST(PercentileSampler, Cdf) {
  PercentileSampler p;
  for (int i = 0; i < 100; ++i) p.add(i);
  const auto cdf = p.cdf(11);
  ASSERT_EQ(cdf.size(), 11u);
  EXPECT_DOUBLE_EQ(cdf.front().second, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  // Monotone in both coordinates.
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(PercentileSampler, EmptyIsSafe) {
  PercentileSampler p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
  EXPECT_TRUE(p.cdf().empty());
}

}  // namespace
}  // namespace oo
