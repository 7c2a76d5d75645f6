#include "services/export.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace oo::services {

std::string cdf_csv(const PercentileSampler& s, int points,
                    const std::string& value_header) {
  std::string out = value_header + ",quantile\n";
  char buf[64];
  for (const auto& [x, q] : s.cdf(points)) {
    std::snprintf(buf, sizeof buf, "%.6g,%.6g\n", x, q);
    out += buf;
  }
  return out;
}

std::string robustness_csv(const FailureRecovery& recovery,
                           const optics::OpticalFabric& fabric) {
  std::string out = "metric,value\n";
  char buf[96];
  auto row_i = [&](const char* name, std::int64_t v) {
    std::snprintf(buf, sizeof buf, "%s,%lld\n", name,
                  static_cast<long long>(v));
    out += buf;
  };
  auto row_f = [&](const char* name, double v) {
    std::snprintf(buf, sizeof buf, "%s,%.6g\n", name, v);
    out += buf;
  };
  row_i("delivered", fabric.delivered());
  row_i("drops_failed", fabric.drops_failed());
  row_i("drops_corrupt", fabric.drops_corrupt());
  row_i("drops_no_circuit", fabric.drops_no_circuit());
  row_i("drops_guard", fabric.drops_guard());
  row_i("drops_boundary", fabric.drops_boundary());
  row_i("reconfig_stalls", fabric.reconfig_stalls());
  row_i("port_downs", recovery.port_downs());
  row_i("port_ups", recovery.port_ups());
  row_i("recoveries", recovery.recoveries());
  row_i("deploy_retries", recovery.retries());
  const auto& det = recovery.detect_latency_us();
  row_f("detect_latency_us_p50", det.empty() ? 0.0 : det.percentile(50));
  row_f("detect_latency_us_p99", det.empty() ? 0.0 : det.percentile(99));
  const auto& mttr = recovery.mttr_us();
  row_f("mttr_us_p50", mttr.empty() ? 0.0 : mttr.percentile(50));
  row_f("mttr_us_p99", mttr.empty() ? 0.0 : mttr.percentile(99));
  row_f("degraded_time_us", recovery.degraded_time().us());
  row_f("availability", recovery.availability());
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("export: cannot write " + path);
  out << content;
}

}  // namespace oo::services
