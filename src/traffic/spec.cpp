#include "traffic/spec.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace oo::traffic {

namespace {

std::vector<workload::CdfPoint> cdf_from_json(const json::Value& v) {
  if (v.type() == json::Type::String) {
    return workload::trace_cdf_by_name(v.as_string());
  }
  std::vector<workload::CdfPoint> cdf;
  for (const auto& pt : v.as_array()) {
    const auto& pair = pt.as_array();
    if (pair.size() != 2) {
      throw std::invalid_argument(
          "traffic spec: CDF points must be [bytes, cum] pairs");
    }
    cdf.push_back({pair[0].as_double(), pair[1].as_double()});
  }
  return cdf;
}

}  // namespace

void validate(const TrafficSpec& spec) {
  if (spec.sources <= 0) {
    throw std::invalid_argument("traffic spec: sources must be positive");
  }
  if (spec.sources >
      static_cast<std::int64_t>(std::numeric_limits<std::uint32_t>::max())) {
    // Engine heap entries index sources with 32 bits.
    throw std::invalid_argument(
        "traffic spec: sources must fit in 32 bits");
  }
  workload::validate_load(spec.load, "traffic spec");
  workload::validate_cdf(spec.size.base);
  if (spec.size.hh_fraction < 0.0 || spec.size.hh_fraction > 1.0) {
    throw std::invalid_argument(
        "traffic spec: hh_fraction must be in [0, 1]");
  }
  if (spec.size.hh_fraction > 0.0) workload::validate_cdf(spec.size.hh);
  if (spec.skew.kind == SkewSpec::Kind::Hotspot) {
    if (spec.skew.hot_tors <= 0) {
      throw std::invalid_argument("traffic spec: hot_tors must be positive");
    }
    if (spec.skew.hot_weight < 0.0 || spec.skew.hot_weight > 1.0) {
      throw std::invalid_argument(
          "traffic spec: hot_weight must be in [0, 1]");
    }
  }
  if (spec.skew.kind == SkewSpec::Kind::Zipf && spec.skew.zipf_s < 0.0) {
    throw std::invalid_argument(
        "traffic spec: zipf exponent must be non-negative");
  }
  if (spec.burst.enabled &&
      (spec.burst.on_mean <= SimTime::zero() ||
       spec.burst.off_mean < SimTime::zero())) {
    throw std::invalid_argument(
        "traffic spec: burst on/off means must be positive");
  }
  double prev_t = -std::numeric_limits<double>::infinity();
  for (const auto& pt : spec.curve) {
    if (pt.t_sec < 0.0 || !(pt.t_sec > prev_t)) {
      throw std::invalid_argument(
          "traffic spec: curve times must be non-negative and strictly "
          "increasing");
    }
    if (pt.scale < 0.0) {
      throw std::invalid_argument(
          "traffic spec: curve scales must be non-negative");
    }
    prev_t = pt.t_sec;
  }
  if (spec.hybrid_threshold <= 0) {
    throw std::invalid_argument(
        "traffic spec: hybrid_threshold must be positive");
  }
  if (spec.transfer.mss <= 0) {
    throw std::invalid_argument("traffic spec: transfer.mss must be positive");
  }
  if (spec.transfer.mss > net::kMaxPacketBytes - transport::kHeaderBytes) {
    throw std::invalid_argument(
        "traffic spec: transfer.mss must fit a packet with its header");
  }
  if (spec.transfer.window <= 0) {
    throw std::invalid_argument(
        "traffic spec: transfer.window must be positive");
  }
  if (spec.flow_pace_bps < 0) {
    throw std::invalid_argument(
        "traffic spec: transfer.pace_bps must be non-negative");
  }
  if (spec.flow_pace_bps > 0 && !spec.open_loop) {
    throw std::invalid_argument(
        "traffic spec: transfer.pace_bps needs open_loop transfer");
  }
}

double curve_scale(const std::vector<LoadPoint>& curve, double t_sec) {
  if (curve.empty()) return 1.0;
  double scale = curve.front().scale;  // before the first point
  for (const auto& pt : curve) {
    if (pt.t_sec > t_sec) break;
    scale = pt.scale;
  }
  return scale;
}

double curve_next_change(const std::vector<LoadPoint>& curve, double t_sec) {
  for (const auto& pt : curve) {
    if (pt.t_sec > t_sec) return pt.t_sec;
  }
  return std::numeric_limits<double>::infinity();
}

double mean_size(const SizeSpec& size) {
  const double base = workload::mean_flow_size(size.base);
  if (size.hh_fraction <= 0.0) return base;
  const double hh = workload::mean_flow_size(size.hh);
  return (1.0 - size.hh_fraction) * base + size.hh_fraction * hh;
}

TrafficSpec spec_from_json(const json::Value& v) {
  TrafficSpec spec;
  spec.sources = v.get_int("sources", spec.sources);
  spec.load = v.get_double("load", spec.load);
  spec.seed = static_cast<std::uint64_t>(v.get_int("seed", 1));
  spec.hybrid_threshold =
      v.get_int("hybrid_threshold", spec.hybrid_threshold);

  if (v.contains("size")) {
    const auto& s = v.at("size");
    if (s.contains("cdf")) spec.size.base = cdf_from_json(s.at("cdf"));
    spec.size.hh_fraction = s.get_double("hh_fraction", 0.0);
    if (s.contains("hh_cdf")) spec.size.hh = cdf_from_json(s.at("hh_cdf"));
  }
  if (spec.size.base.empty()) {
    spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  }

  if (v.contains("skew")) {
    const auto& s = v.at("skew");
    const std::string kind = s.get_string("kind", "uniform");
    if (kind == "uniform") {
      spec.skew.kind = SkewSpec::Kind::Uniform;
    } else if (kind == "hotspot") {
      spec.skew.kind = SkewSpec::Kind::Hotspot;
    } else if (kind == "zipf") {
      spec.skew.kind = SkewSpec::Kind::Zipf;
    } else {
      throw std::invalid_argument("traffic spec: unknown skew kind '" +
                                  kind + "' (uniform, hotspot, zipf)");
    }
    spec.skew.hot_tors =
        static_cast<int>(s.get_int("hot_tors", spec.skew.hot_tors));
    spec.skew.hot_weight = s.get_double("hot_weight", spec.skew.hot_weight);
    spec.skew.zipf_s = s.get_double("s", spec.skew.zipf_s);
  }

  if (v.contains("burst")) {
    const auto& b = v.at("burst");
    spec.burst.enabled = true;
    spec.burst.on_mean = SimTime::nanos(
        static_cast<std::int64_t>(b.get_double("on_us", 200.0) * 1e3));
    spec.burst.off_mean = SimTime::nanos(
        static_cast<std::int64_t>(b.get_double("off_us", 800.0) * 1e3));
  }

  if (v.contains("curve")) {
    for (const auto& pt : v.at("curve").as_array()) {
      const auto& pair = pt.as_array();
      if (pair.size() != 2) {
        throw std::invalid_argument(
            "traffic spec: curve points must be [t_sec, scale] pairs");
      }
      spec.curve.push_back({pair[0].as_double(), pair[1].as_double()});
    }
  }

  if (v.contains("transfer")) {
    const auto& t = v.at("transfer");
    spec.transfer.mss = t.get_int("mss", spec.transfer.mss);
    spec.transfer.window =
        static_cast<int>(t.get_int("window", spec.transfer.window));
    spec.open_loop = t.get_bool("open_loop", spec.open_loop);
    spec.flow_pace_bps = t.get_double("pace_bps", spec.flow_pace_bps);
  }

  validate(spec);
  return spec;
}

TrafficSpec spec_from_json_text(const std::string& text) {
  return spec_from_json(json::parse(text));
}

}  // namespace oo::traffic
