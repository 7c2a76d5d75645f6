// Declarative description of a production-shaped traffic mix: how many
// client sources exist, how hot the rack-to-rack skew is, how bursty each
// source's ON/OFF process is, what the flow sizes look like (base CDF plus
// an optional heavy-hitter mixture), how offered load moves over time
// (diurnal / load-sweep curves), where the hybrid packet/fluid fidelity
// threshold sits, and whether packet flows run closed loop (reliable
// transfers) or open loop (raw packet trains). Parsed from JSON so
// campaigns and examples can ship traffic shapes as data, validated eagerly
// so malformed specs fail with a message instead of simulating garbage.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/json.h"
#include "common/time.h"
#include "transport/flow_transfer.h"
#include "workload/traces.h"

namespace oo::traffic {

// Rack-to-rack demand skew. Destinations are picked per-rack first, then
// uniformly among the rack's hosts; a source never targets its own rack.
struct SkewSpec {
  enum class Kind { Uniform, Hotspot, Zipf };
  Kind kind = Kind::Uniform;
  // Hotspot: `hot_tors` racks (ids 0..hot_tors-1) jointly attract
  // `hot_weight` of the demand; the rest spreads uniformly.
  int hot_tors = 1;
  double hot_weight = 0.5;
  // Zipf: rack j attracts weight 1/(j+1)^s.
  double zipf_s = 1.0;
};

// ON/OFF source burstiness (interrupted Poisson process): a source emits
// flows only inside exponentially-distributed ON windows separated by
// exponentially-distributed OFF gaps. The per-source arrival rate inside
// ON windows is scaled by 1/duty so the long-run offered load matches the
// spec's `load` regardless of burstiness.
struct BurstSpec {
  bool enabled = false;
  SimTime on_mean = SimTime::micros(200);
  SimTime off_mean = SimTime::micros(800);
};

// Flow-size model: a validated log-linear CDF, optionally mixed with a
// heavy-hitter CDF — with probability `hh_fraction` a flow draws from the
// `hh` distribution instead of `base`.
struct SizeSpec {
  std::vector<workload::CdfPoint> base;
  double hh_fraction = 0.0;
  std::vector<workload::CdfPoint> hh;
};

// Piecewise-constant load multiplier: scale `scale` applies from `t_sec`
// until the next point (the value before the first point is the first
// point's scale). Zero scales are legal — the engine skips the window
// analytically instead of thinning arrivals.
struct LoadPoint {
  double t_sec = 0.0;
  double scale = 1.0;
};

struct TrafficSpec {
  // Independent client generators. Memory is O(sources); flows are
  // synthesized lazily, so the flow count per source is unbounded.
  std::int64_t sources = 1024;
  // Long-run offered fraction of aggregate host bandwidth at curve
  // scale 1.0 (0.4 = the paper's 40% core utilization).
  double load = 0.4;
  SizeSpec size;
  SkewSpec skew;
  BurstSpec burst;
  std::vector<LoadPoint> curve;  // empty = constant 1.0
  // Flows of at least this many bytes run at fluid (flow-level) fidelity;
  // smaller flows run packet-level. Default: everything packet-level.
  std::int64_t hybrid_threshold = std::numeric_limits<std::int64_t>::max();
  // Root of every per-source RNG stream (derive_rng(seed, source, ...)),
  // so the synthesized flow stream is a pure function of the spec —
  // independent of thread count, run order, and other components' draws.
  std::uint64_t seed = 1;
  // Transport knobs for the packet-fidelity flows.
  transport::FlowTransferConfig transfer;
  // Open loop: packet-fidelity flows go out as raw packet trains of
  // transfer.mss payloads with no acks, windows or retransmission, so no
  // transport backpressure throttles the schemes with long circuit waits
  // and masks their buffering (the paper's §7 replay methodology, Tab. 3/4).
  // Open-loop flows never complete. Closed loop (the default) runs each
  // flow as a reliable FlowTransfer.
  bool open_loop = false;
  // Open loop only: spread each flow's packets at this rate instead of
  // handing them to the host stack back to back at line rate (0). Long
  // flows in the replayed traces are paced by their applications, not
  // NIC-speed bursts.
  BitsPerSec flow_pace_bps = 0;
};

// Throws std::invalid_argument on out-of-range fields or malformed CDFs.
void validate(const TrafficSpec& spec);

// Load multiplier at time `t_sec` (1.0 for an empty curve).
double curve_scale(const std::vector<LoadPoint>& curve, double t_sec);
// Next time > t_sec at which the multiplier changes; +inf when constant
// from here on.
double curve_next_change(const std::vector<LoadPoint>& curve, double t_sec);

// Mixture mean of the size model (base and heavy-hitter parts).
double mean_size(const SizeSpec& size);

// Builds a spec from its JSON form; unknown fields are ignored, missing
// fields keep their defaults, and the result is validate()d. Accepted
// shape (all fields optional):
//   {"sources": 1000000, "load": 0.4, "seed": 7,
//    "size": {"cdf": "kv" | [[bytes, cum], ...],
//             "hh_fraction": 0.01, "hh_cdf": "hadoop" | [[...], ...]},
//    "skew": {"kind": "uniform" | "hotspot" | "zipf",
//             "hot_tors": 4, "hot_weight": 0.6, "s": 1.2},
//    "burst": {"on_us": 200, "off_us": 800},
//    "curve": [[t_sec, scale], ...],
//    "hybrid_threshold": 100000,
//    "transfer": {"mss": 8900, "window": 64,
//                 "open_loop": true, "pace_bps": 3e9}}
TrafficSpec spec_from_json(const json::Value& v);
TrafficSpec spec_from_json_text(const std::string& text);

}  // namespace oo::traffic
