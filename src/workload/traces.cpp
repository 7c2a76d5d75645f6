#include "workload/traces.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oo::workload {

const char* trace_name(TraceKind k) {
  switch (k) {
    case TraceKind::Rpc: return "RPC";
    case TraceKind::Hadoop: return "Hadoop";
    case TraceKind::KvStore: return "KV-store";
  }
  return "?";
}

const std::vector<CdfPoint>& trace_cdf(TraceKind k) {
  // Shapes follow the published workload characterizations: Homa's RPC
  // workload (bimodal, long tail), Facebook's Hadoop cluster (small-flow
  // heavy with multi-MB shuffle tail), and the Memcached KV store (tiny
  // objects, rare large values).
  static const std::vector<CdfPoint> rpc = {
      {100, 0.20},   {300, 0.40},   {1e3, 0.60},  {3e3, 0.70},
      {1e4, 0.78},   {5e4, 0.85},   {2e5, 0.92},  {1e6, 0.97},
      {5e6, 0.995},  {3e7, 1.0},
  };
  static const std::vector<CdfPoint> hadoop = {
      {250, 0.15},   {1e3, 0.45},   {1e4, 0.70},  {1e5, 0.85},
      {1e6, 0.94},   {1e7, 0.99},   {1e8, 1.0},
  };
  static const std::vector<CdfPoint> kv = {
      {64, 0.20},    {128, 0.50},   {512, 0.80},  {1e3, 0.90},
      {4200, 0.97},  {1e5, 0.999},  {1e6, 1.0},
  };
  switch (k) {
    case TraceKind::Rpc: return rpc;
    case TraceKind::Hadoop: return hadoop;
    case TraceKind::KvStore: return kv;
  }
  return rpc;
}

const std::vector<CdfPoint>& trace_cdf_by_name(const std::string& name) {
  if (name == "rpc") return trace_cdf(TraceKind::Rpc);
  if (name == "hadoop") return trace_cdf(TraceKind::Hadoop);
  if (name == "kv" || name == "kvstore") return trace_cdf(TraceKind::KvStore);
  throw std::invalid_argument("unknown flow-size CDF '" + name +
                              "' (known: rpc, hadoop, kv)");
}

void validate_cdf(const std::vector<CdfPoint>& cdf) {
  if (cdf.empty()) {
    throw std::invalid_argument("flow-size CDF: no points");
  }
  double prev_b = 0.0, prev_c = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    const auto& pt = cdf[i];
    if (!(pt.bytes > prev_b)) {
      throw std::invalid_argument(
          "flow-size CDF: bytes must be positive and strictly increasing "
          "(point " + std::to_string(i) + ": " + std::to_string(pt.bytes) +
          " after " + std::to_string(prev_b) + ")");
    }
    if (!(pt.cum > 0.0) || pt.cum > 1.0 || pt.cum < prev_c) {
      throw std::invalid_argument(
          "flow-size CDF: cumulative probability must be non-decreasing in "
          "(0, 1] (point " + std::to_string(i) + ": " +
          std::to_string(pt.cum) + " after " + std::to_string(prev_c) + ")");
    }
    prev_b = pt.bytes;
    prev_c = pt.cum;
  }
  if (cdf.back().cum != 1.0) {
    throw std::invalid_argument(
        "flow-size CDF: last point must close the distribution at 1.0 (got " +
        std::to_string(cdf.back().cum) + ")");
  }
}

void validate_load(double load, const char* what) {
  if (!(load > 0.0) || load > 1.0) {
    throw std::invalid_argument(std::string(what) +
                                ": load must be in (0, 1], got " +
                                std::to_string(load));
  }
}

double sample_flow_size(const std::vector<CdfPoint>& cdf, Rng& rng) {
  const double u = rng.uniform01();
  double prev_b = 1.0, prev_c = 0.0;
  for (const auto& pt : cdf) {
    if (u <= pt.cum) {
      const double frac =
          (pt.cum > prev_c) ? (u - prev_c) / (pt.cum - prev_c) : 1.0;
      // Log-linear interpolation matches heavy-tailed size distributions.
      return std::exp(std::log(prev_b) +
                      frac * (std::log(pt.bytes) - std::log(prev_b)));
    }
    prev_b = pt.bytes;
    prev_c = pt.cum;
  }
  return cdf.back().bytes;
}

double mean_flow_size(const std::vector<CdfPoint>& cdf) {
  double mean = 0.0, prev_b = 1.0, prev_c = 0.0;
  for (const auto& pt : cdf) {
    // Within a log-linear segment the size is log-uniform on [a, b]; its
    // exact mean is (b - a) / ln(b / a).
    const double a = prev_b, b = pt.bytes;
    const double seg_mean = (b > a) ? (b - a) / std::log(b / a) : a;
    mean += (pt.cum - prev_c) * seg_mean;
    prev_b = pt.bytes;
    prev_c = pt.cum;
  }
  return mean;
}

double cdf_fraction_above(const std::vector<CdfPoint>& cdf, double bytes) {
  // CDF(x) within a log-linear segment [a, b] carrying mass (c_lo, c_hi]:
  // c_lo + (c_hi - c_lo) * ln(x/a) / ln(b/a) — the inverse of
  // sample_flow_size's interpolation.
  double prev_b = 1.0, prev_c = 0.0;
  for (const auto& pt : cdf) {
    if (bytes <= pt.bytes) {
      if (bytes <= prev_b || pt.bytes <= prev_b) return 1.0 - prev_c;
      const double frac =
          std::log(bytes / prev_b) / std::log(pt.bytes / prev_b);
      return 1.0 - (prev_c + (pt.cum - prev_c) * frac);
    }
    prev_b = pt.bytes;
    prev_c = pt.cum;
  }
  return 0.0;
}

double cdf_byte_fraction_above(const std::vector<CdfPoint>& cdf,
                               double bytes) {
  // Per log-linear segment [a, b] with probability mass p, the size is
  // log-uniform, so E[S · 1{S > x}] over the segment is p * (b - x) /
  // ln(b / a) for x in [a, b] (and the full p * (b - a) / ln(b / a) when
  // the segment lies entirely above x).
  double tail = 0.0, prev_b = 1.0, prev_c = 0.0;
  for (const auto& pt : cdf) {
    const double a = prev_b, b = pt.bytes, p = pt.cum - prev_c;
    if (b > a && p > 0.0) {
      const double x = std::min(std::max(bytes, a), b);
      tail += p * (b - x) / std::log(b / a);
    } else if (b <= bytes && b == a) {
      // Degenerate point mass below the threshold contributes nothing.
    } else if (b > bytes && b == a) {
      tail += p * a;
    }
    prev_b = pt.bytes;
    prev_c = pt.cum;
  }
  const double mean = mean_flow_size(cdf);
  return mean > 0.0 ? tail / mean : 0.0;
}

}  // namespace oo::workload
