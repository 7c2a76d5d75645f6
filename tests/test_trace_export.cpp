#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/stats.h"
#include "services/export.h"

namespace oo::services {
namespace {

TEST(ExportCsv, CdfFormat) {
  PercentileSampler s;
  for (int i = 0; i < 100; ++i) s.add(i);
  const auto csv = cdf_csv(s, 5, "us");
  EXPECT_EQ(csv.substr(0, 12), "us,quantile\n");
  // 5 data rows.
  int rows = 0;
  for (char c : csv) rows += (c == '\n');
  EXPECT_EQ(rows, 6);
}

TEST(ExportCsv, WriteFile) {
  const std::string path = "/tmp/oo_export_test.csv";
  write_file(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent/x.csv", "y"),
               std::runtime_error);
}

}  // namespace
}  // namespace oo::services
