// Production DCN trace models (§7 experimental setup): flow-size CDFs
// shaped after the published distributions of the Homa RPC workload, the
// Facebook Hadoop cluster, and the Facebook Memcached KV store.
// traffic::TrafficSpec draws Poisson flow arrivals from them, scaled to a
// target core-link utilization; the benches use that where the paper
// replays the real traces (Tab. 3/4, open loop).
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"

namespace oo::workload {

enum class TraceKind { Rpc, Hadoop, KvStore };

const char* trace_name(TraceKind k);

struct CdfPoint {
  double bytes;
  double cum;  // P(size <= bytes)
};

// Flow-size CDF of the trace (log-linear interpolation between points).
const std::vector<CdfPoint>& trace_cdf(TraceKind k);
// Named lookup for JSON specs ("rpc" | "hadoop" | "kv"); throws
// std::invalid_argument on an unknown name.
const std::vector<CdfPoint>& trace_cdf_by_name(const std::string& name);
double sample_flow_size(const std::vector<CdfPoint>& cdf, Rng& rng);
double mean_flow_size(const std::vector<CdfPoint>& cdf);

// Rejects malformed flow-size CDFs with std::invalid_argument: points must
// be non-empty, bytes positive and strictly increasing, cumulative
// probability non-decreasing in (0, 1], and the last point must close the
// distribution at exactly 1.0. Every sampler in the tree funnels user-
// supplied CDFs through this — a silently non-monotone CDF makes
// sample_flow_size interpolate garbage instead of failing.
void validate_cdf(const std::vector<CdfPoint>& cdf);
// Rejects an offered-load fraction outside (0, 1] with
// std::invalid_argument (`what` names the caller in the message).
void validate_load(double load, const char* what);

// Analytic tail shares of a (validated) log-linear CDF, for asserting that
// sampled heavy-hitter streams match their spec:
//  - fraction of *flows* strictly larger than `bytes`;
//  - fraction of *bytes* carried by flows larger than `bytes`
//    (E[S · 1{S > x}] / E[S], the elephant byte mass).
double cdf_fraction_above(const std::vector<CdfPoint>& cdf, double bytes);
double cdf_byte_fraction_above(const std::vector<CdfPoint>& cdf,
                               double bytes);

}  // namespace oo::workload
