// Table 2 — Tofino2 resource usage of an OpenOptics ToR in the 108-ToR
// deployment, from the fitted first-order resource model, plus sensitivity
// rows (feature knobs, table growth) the paper's headroom claim rests on.
//
// Gate (exit 2 on failure): the six printed percentages equal the paper's.
#include <cstdio>

#include "bench/bench_util.h"
#include "resource/tofino.h"

using namespace oo;

int main() {
  bench::banner(
      "Table 2: Tofino2 resource usage (108-ToR observed ToR)",
      "SRAM 3.8% / TCAM 2.3% / sALU 9.4% / TernaryXbar 13.8% / VLIW 5.6% / "
      "ExactXbar 7.8% — everything under 13.8%");

  const auto ref = resource::paper_reference_inputs();
  const auto usage = resource::estimate_tofino2(ref);
  std::printf("%s", usage.table().c_str());
  std::printf("  max across resources: %.1f%%\n\n", usage.max_pct());
  bench::Gate gate;
  const struct {
    const char* name;
    double measured;
    double paper;
  } rows[] = {{"SRAM", usage.sram_pct, 3.8},
              {"TCAM", usage.tcam_pct, 2.3},
              {"Stateful ALU", usage.stateful_alu_pct, 9.4},
              {"Ternary Xbar", usage.ternary_xbar_pct, 13.8},
              {"VLIW Actions", usage.vliw_pct, 5.6},
              {"Exact Xbar", usage.exact_xbar_pct, 7.8}};
  for (const auto& row : rows) {
    gate.check(bench::printed(row.measured, 1) == row.paper,
               "%s: %.1f%% (paper: %.1f%%)", row.name, row.measured,
               row.paper);
  }

  std::printf("sensitivity: scaling the DCN (entries = (N-1) x N)\n");
  std::printf("  %-8s %-10s %-8s %-8s\n", "ToRs", "entries", "SRAM%", "max%");
  for (int n : {32, 64, 108, 256, 512}) {
    auto in = ref;
    in.tft_entries = static_cast<std::int64_t>(n - 1) * n;
    in.calendar_queues_per_port = std::min(n - 1, 128);
    const auto u = resource::estimate_tofino2(in);
    std::printf("  %-8d %-10lld %-8.1f %-8.1f\n", n,
                static_cast<long long>(in.tft_entries), u.sram_pct,
                u.max_pct());
  }

  std::printf("\nsensitivity: infra-service knobs (108 ToRs)\n");
  auto base = ref;
  base.congestion_detection = false;
  const auto off = resource::estimate_tofino2(base);
  auto full = ref;
  full.pushback = true;
  full.offload = true;
  const auto on = resource::estimate_tofino2(full);
  std::printf("  services off : sALU %.1f%%  ternary %.1f%%  VLIW %.1f%%\n",
              off.stateful_alu_pct, off.ternary_xbar_pct, off.vliw_pct);
  std::printf("  all services : sALU %.1f%%  ternary %.1f%%  VLIW %.1f%%\n",
              on.stateful_alu_pct, on.ternary_xbar_pct, on.vliw_pct);
  return gate.finish("table 2 bench passed");
}
