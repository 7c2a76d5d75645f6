// Telemetry export: a CSV writer for the FCT and monitoring samplers, so
// experiment output can be plotted outside the harness.
#pragma once

#include <string>

#include "common/stats.h"

namespace oo::services {

// CDF of a sampler as "value,quantile" rows.
std::string cdf_csv(const PercentileSampler& s, int points = 100,
                    const std::string& value_header = "value");

// Write `content` to `path` (throws on failure).
void write_file(const std::string& path, const std::string& content);

}  // namespace oo::services
