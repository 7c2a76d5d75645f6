// Fig. 8 — Case I: realistic side-by-side comparison of architectures.
// (a) Mice: Memcached 4.2 KB SETs, 1 server + 7 clients on 8 ToRs.
// (b) Elephants: Gloo-style ring allreduce over all 8 hosts.
// Architectures: Clos, c-Through, Jupiter (TA); Mordia (slotted TA);
// RotorNet-VLB, Opera, RotorNet-UCMP (TO).
//
// Both sweeps are campaign specs executed by the runner (src/runner/):
// each architecture point is an isolated parallel run, and the same specs
// (examples/specs/fig08_*.json) regenerate the figure from the campaign
// CLI. Per-architecture quirks live in spec patches: Jupiter's slow
// control loop, RotorNet-VLB's reordering-tolerant transport (an
// effectively disabled dupack FR, since VLB sprays per packet).
//
// Gates (exit 2 on failure). Mice: UCMP's p50 below VLB's, Jupiter's p50
// the lowest, c-Through's p99 and Opera's p50 under 2x Clos's, Mordia's
// p99 over 10x its p50. Elephants at 21 MB: Clos fastest, UCMP faster than
// opera-bulk and VLB.
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "bench/bench_util.h"

using namespace oo;

namespace {

const char* kArchesMice[] = {"clos",         "cthrough", "jupiter",
                             "mordia",       "rotornet-vlb",
                             "opera",        "rotornet-ucmp"};
const char* kArchesBulk[] = {"clos",         "cthrough", "jupiter",
                             "mordia",       "rotornet-vlb",
                             "opera-bulk",   "rotornet-ucmp"};

json::Object fig08_fixed() {
  json::Object fixed;
  fixed["tors"] = 8;
  fixed["hosts"] = 1;
  // The testbed's 400 Gbps ToR uplink appears as multiple 100G lanes.
  fixed["uplinks"] = 2;
  fixed["slice_us"] = 100.0;
  fixed["collect_interval_ms"] = 10.0;
  fixed["reconfig_delay_ms"] = 1.0;  // MEMS scaled to the simulated horizon
  fixed["net_seed"] = 1;
  return fixed;
}

// Jupiter collects infrequently (the paper's 24 h control loop, scaled).
runner::CampaignSpec::Patch jupiter_patch() {
  runner::CampaignSpec::Patch p;
  p.match["arch"] = "jupiter";
  p.set["collect_interval_ms"] = 60.0;
  return p;
}

std::string arch_label(const runner::RunRecord& rec) {
  std::string label = rec.params.at("arch").as_string();
  if (label == "opera-bulk") return "opera";
  if (label == "cthrough") return "c-through";  // the paper's spelling
  return label;
}

}  // namespace

int main() {
  bench::banner(
      "Fig. 8(a): mice FCT (Memcached SETs) across architectures",
      "c-Through ~ Clos; Jupiter low; Mordia low median / long tail; "
      "RotorNet(VLB) long circuit-wait tail; Opera low; UCMP lowest of TO");
  bench::Gate gate;
  {
    runner::CampaignSpec spec;
    spec.name = "fig08_mice";
    spec.experiment = "fct";
    spec.fixed = fig08_fixed();
    spec.fixed["duration_ms"] = 250;
    spec.fixed["kv_interval_ms"] = 2.0;
    json::Array arches;
    for (const char* a : kArchesMice) arches.emplace_back(a);
    spec.grid["arch"] = arches;
    spec.patches.push_back(jupiter_patch());

    auto engine = bench::run_campaign(spec);
    std::map<std::string, json::Object> mice;
    for (const auto& rec : engine.records()) {
      bench::fct_row(arch_label(rec), rec.result);
      mice[rec.params.at("arch").as_string()] = rec.result;
    }
    const auto us = [&mice](const std::string& arch, const char* key) {
      return bench::printed(mice.at(arch).at(key).as_double(), 1);
    };
    gate.check(us("rotornet-ucmp", "p50_us") < us("rotornet-vlb", "p50_us"),
               "mice: UCMP's p50 is not below VLB's");
    for (const std::string arch : kArchesMice) {
      gate.check(arch == "jupiter" ||
                     us("jupiter", "p50_us") < us(arch, "p50_us"),
                 "mice: Jupiter's p50 is not below %s's", arch.c_str());
    }
    gate.check(us("cthrough", "p99_us") < 2 * us("clos", "p99_us"),
               "mice: c-Through's p99 is not under 2x Clos's");
    gate.check(us("opera", "p50_us") < 2 * us("clos", "p50_us"),
               "mice: Opera's p50 is not under 2x Clos's");
    gate.check(us("mordia", "p99_us") > 10 * us("mordia", "p50_us"),
               "mice: Mordia's p99 is not over 10x its p50");
  }

  bench::banner(
      "Fig. 8(b): elephant FCT (ring allreduce) across architectures",
      "TA (c-Through/Jupiter/Mordia) ~ Clos; RotorNet/Opera ~2x (50% duty); "
      "UCMP between");
  {
    runner::CampaignSpec spec;
    spec.name = "fig08_elephants";
    spec.experiment = "allreduce";
    spec.fixed = fig08_fixed();
    spec.fixed["duration_ms"] = 3000;
    json::Array arches, sizes;
    for (const char* a : kArchesBulk) arches.emplace_back(a);
    for (const std::int64_t b :
         {std::int64_t{800 << 10}, std::int64_t{4 << 20},
          std::int64_t{20 << 20}}) {
      sizes.emplace_back(b);
    }
    spec.grid["arch"] = arches;
    spec.grid["bytes"] = sizes;
    spec.patches.push_back(jupiter_patch());
    runner::CampaignSpec::Patch vlb;
    vlb.match["arch"] = "rotornet-vlb";
    vlb.set["dupack_threshold"] = 64;
    spec.patches.push_back(vlb);

    auto engine = bench::run_campaign(spec);
    // Axes iterate sorted by name, "bytes" fastest: records group into
    // one row of three sizes per architecture.
    const auto& records = engine.records();
    std::map<std::string, double> ms_21mb;  // absent when timed out
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (i % 3 == 0) {
        std::printf("  %-22s", arch_label(records[i]).c_str());
      }
      const auto& r = records[i].result;
      const std::int64_t bytes = records[i].params.at("bytes").as_int();
      const double mb = static_cast<double>(bytes) / 1e6;
      if (r.at("done").as_bool()) {
        std::printf("  %7.2fms@%.1fMB", r.at("total_ms").as_double(), mb);
        if (bytes == std::int64_t{20 << 20}) {
          ms_21mb[records[i].params.at("arch").as_string()] =
              bench::printed(r.at("total_ms").as_double(), 2);
        }
      } else {
        std::printf("  %8s@%.1fMB", "timeout", mb);
      }
      if (i % 3 == 2) std::printf("\n");
    }
    const auto ms = [&ms_21mb](const std::string& arch) {
      const auto it = ms_21mb.find(arch);
      return it == ms_21mb.end() ? std::numeric_limits<double>::infinity()
                                 : it->second;
    };
    for (const std::string arch : kArchesBulk) {
      gate.check(arch == "clos" || ms("clos") < ms(arch),
                 "elephants at 21 MB: Clos is not faster than %s",
                 arch.c_str());
    }
    gate.check(ms("rotornet-ucmp") < ms("opera-bulk") &&
                   ms("rotornet-ucmp") < ms("rotornet-vlb"),
               "elephants at 21 MB: UCMP does not beat opera-bulk and VLB");
  }
  return gate.finish("fig 8 bench passed");
}
