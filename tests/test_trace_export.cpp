#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "arch/arch.h"
#include "services/export.h"
#include "workload/trace_file.h"

namespace oo::workload {
namespace {

using namespace oo::literals;

TEST(TraceFile, ParseAndFormatRoundTrip) {
  const std::string text =
      "# comment\n"
      "1000 0 3 4200\n"
      "\n"
      "500 1 2 9000  # inline comment\n";
  const auto flows = parse_trace(text);
  ASSERT_EQ(flows.size(), 2u);
  // Sorted by start time.
  EXPECT_EQ(flows[0].start, 500_ns);
  EXPECT_EQ(flows[0].src, 1);
  EXPECT_EQ(flows[0].dst, 2);
  EXPECT_EQ(flows[0].bytes, 9000);
  EXPECT_EQ(flows[1].start, 1000_ns);

  const auto again = parse_trace(format_trace(flows));
  EXPECT_EQ(again, flows);
}

TEST(TraceFile, MalformedLinesThrow) {
  EXPECT_THROW(parse_trace("123 0 1\n"), std::runtime_error);   // missing col
  EXPECT_THROW(parse_trace("5 0 1 -9\n"), std::runtime_error);  // bad bytes
  EXPECT_THROW(parse_trace("5 -1 1 9\n"), std::runtime_error);  // bad host
}

TEST(TraceFile, FileRoundTrip) {
  const std::string path = "/tmp/oo_trace_test.txt";
  std::vector<TraceFlow> flows = {
      {1_us, 0, 1, 1500},
      {2_us, 1, 0, 9000},
  };
  save_trace_file(path, flows);
  EXPECT_EQ(load_trace_file(path), flows);
  std::remove(path.c_str());
  EXPECT_THROW(load_trace_file("/nonexistent/nope.txt"), std::runtime_error);
}

TEST(TraceFile, SynthesizeRespectsStructure) {
  Rng rng(5);
  const auto flows = synthesize_trace(TraceKind::Rpc, 0.3, /*hosts=*/16,
                                      /*hosts_per_tor=*/2, 10e9, 5_ms, rng);
  ASSERT_GT(flows.size(), 50u);
  for (const auto& f : flows) {
    EXPECT_LT(f.start, 5_ms);
    EXPECT_NE(f.src / 2, f.dst / 2);  // inter-ToR only
    EXPECT_GT(f.bytes, 0);
    EXPECT_GE(f.src, 0);
    EXPECT_LT(f.src, 16);
  }
  // Deterministic for a given seed.
  Rng rng2(5);
  EXPECT_EQ(synthesize_trace(TraceKind::Rpc, 0.3, 16, 2, 10e9, 5_ms, rng2),
            flows);
}

TEST(TraceFile, FileReplayDeliversAndRecords) {
  arch::Params p;
  p.tors = 4;
  p.slice = 100_us;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  std::vector<TraceFlow> flows = {
      {10_us, 0, 2, 4200},
      {50_us, 1, 3, 4200},
      {1_ms, 2, 0, 50000},
  };
  FileReplay replay(*inst.net, flows, {});
  replay.start();
  inst.run_for(50_ms);
  EXPECT_EQ(replay.flows_completed(), 3);
  EXPECT_EQ(replay.fct_us().count(), 3u);
  EXPECT_GT(replay.fct_us().min(), 0.0);
}

TEST(ExportCsv, CdfFormat) {
  PercentileSampler s;
  for (int i = 0; i < 100; ++i) s.add(i);
  const auto csv = services::cdf_csv(s, 5, "us");
  EXPECT_EQ(csv.substr(0, 12), "us,quantile\n");
  // 5 data rows.
  int rows = 0;
  for (char c : csv) rows += (c == '\n');
  EXPECT_EQ(rows, 6);
}

TEST(ExportCsv, WriteFile) {
  const std::string path = "/tmp/oo_export_test.csv";
  services::write_file(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
  EXPECT_THROW(services::write_file("/nonexistent/x.csv", "y"),
               std::runtime_error);
}

}  // namespace
}  // namespace oo::workload
