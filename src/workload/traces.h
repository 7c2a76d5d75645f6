// Production DCN trace models (§7 experimental setup): flow-size CDFs
// shaped after the published distributions of the Homa RPC workload, the
// Facebook Hadoop cluster, and the Facebook Memcached KV store, replayed as
// Poisson flow arrivals scaled to a target core-link utilization. The
// benches use these where the paper replays the real traces (Tab. 3/4).
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/network.h"
#include "workload/transfer_pool.h"

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

// Poisson open-loop flow generator across random inter-ToR host pairs.
// `load` is the fraction of aggregate host bandwidth offered (0.4 = the
// paper's 40% core utilization).
class TraceReplay {
 public:
  TraceReplay(core::Network& net, TraceKind kind, double load,
              transport::FlowTransferConfig transfer = {});

  void start();
  void stop() { running_ = false; }

  // FCT of the mice (< 100 KB), the flows Fig. 8 reports.
  const PercentileSampler& mice_fct_us() const { return mice_fct_us_; }
  std::int64_t flows_completed() const { return pool_.completed(); }
  std::int64_t flows_launched() const { return pool_.launched(); }

 private:
  void schedule_next();

  core::Network& net_;
  TransferPool pool_;
  TraceKind kind_;
  transport::FlowTransferConfig transfer_;
  SimTime mean_interarrival_;
  Rng rng_;
  PercentileSampler mice_fct_us_;
  bool running_ = false;
};

// Open-loop trace replay: flows are emitted as raw packet trains with no
// transport backpressure — the paper's §7 methodology (replayed traces at a
// target utilization). Use this for buffer-occupancy and loss studies
// (Tab. 3/4) where closed-loop windows would throttle exactly the schemes
// with long circuit waits and mask their buffering.
class OpenLoopReplay {
 public:
  // `flow_pace_bps` spreads each flow's packets at the given rate instead
  // of dumping them at host line rate (0 = line rate). Long flows in the
  // replayed traces are paced by their applications, not NIC-speed bursts.
  OpenLoopReplay(core::Network& net, TraceKind kind, double load,
                 std::int64_t mss = 8936, BitsPerSec flow_pace_bps = 0);

  void start();
  void stop() { running_ = false; }

 private:
  void schedule_next();

  core::Network& net_;
  TraceKind kind_;
  std::int64_t mss_;
  BitsPerSec flow_pace_bps_;
  SimTime mean_interarrival_;
  Rng rng_;
  bool running_ = false;
};

}  // namespace oo::workload
