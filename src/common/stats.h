// Streaming statistics used by benches and telemetry: running moments and
// exact-percentile samplers with their CDFs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace oo {

// Welford running mean / variance plus min & max.
class RunningStats {
 public:
  void add(double x);
  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples and answers exact percentile queries. Fine for the sample
// counts our benches produce (≤ millions).
class PercentileSampler {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  // p in [0, 100]. Linear interpolation between closest ranks.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }
  // Evenly spaced CDF points (x at each of `points` quantiles), for plotting.
  std::vector<std::pair<double, double>> cdf(int points = 50) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

}  // namespace oo
