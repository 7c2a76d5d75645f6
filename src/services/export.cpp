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

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("export: cannot write " + path);
  out << content;
}

}  // namespace oo::services
