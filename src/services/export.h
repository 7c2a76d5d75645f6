// Telemetry export: CSV writers for the monitoring series and FCT
// samplers, so experiment output can be plotted outside the harness.
#pragma once

#include <string>

#include "common/stats.h"
#include "optics/fabric.h"
#include "services/failure_recovery.h"

namespace oo::services {

// CDF of a sampler as "value,quantile" rows.
std::string cdf_csv(const PercentileSampler& s, int points = 100,
                    const std::string& value_header = "value");

// Robustness summary as "metric,value" rows: per-fault-class fabric drops,
// failure/repair transition counts, detection-latency and MTTR percentiles
// (microseconds), retry/recovery counters, and the availability fraction.
std::string robustness_csv(const FailureRecovery& recovery,
                           const optics::OpticalFabric& fabric);

// Write `content` to `path` (throws on failure).
void write_file(const std::string& path, const std::string& content);

}  // namespace oo::services
