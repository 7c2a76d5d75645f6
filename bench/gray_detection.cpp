// Robustness bench: gray-failure detection by the evidence-based health
// scanner. Four fault kinds — an aging transceiver (ber_ramp), a dirty
// port pair (gray_pair), a lying telemetry reporter (telemetry_skew), and
// an agent that acks installs it never applies (silent_install) — are
// swept across severities on an 8-ToR hybrid rotor. For every faulted row
// the scanner must localize the true cause (right kind, right port, right
// peer) with zero off-target suspicions; a clean-seed soak across five
// network seeds must stay perfectly quiet. Detection latency (fault start
// to Suspect) and remediation latency (fault start to Quarantine) are the
// tracked figures, written to BENCH_gray.json so successive changes can
// diff detector regressions.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"

using namespace oo;

namespace {

runner::CampaignSpec fault_sweep_spec() {
  runner::CampaignSpec spec;
  spec.name = "gray_detection";
  spec.experiment = "gray_detection";
  spec.fixed["arch"] = "rotornet-direct-hybrid";
  spec.fixed["tors"] = 8;
  spec.fixed["hosts"] = 1;
  spec.fixed["uplinks"] = 1;
  spec.fixed["net_seed"] = 7;
  spec.fixed["fault_seed"] = 2024;
  spec.fixed["target"] = 2;
  spec.fixed["port"] = 0;
  spec.fixed["peer"] = 5;
  spec.fixed["fault_at_us"] = 2000.0;
  spec.fixed["fault_window_us"] = 20000.0;
  spec.fixed["duration_ms"] = 30;
  // Operating point: the lowest severity in the sweep corrupts ~7% of
  // frames, so the anomaly bar sits at 3% — comfortably below the weakest
  // fault yet far above clean-run jitter (the soak below runs at the same
  // threshold to back that claim).
  spec.fixed["suspect_score"] = 0.03;
  json::Array faults, severities;
  for (const char* f :
       {"ber_ramp", "gray_pair", "silent_install", "telemetry_skew"}) {
    faults.emplace_back(std::string(f));
  }
  for (const double s : {0.3, 0.5, 0.7}) severities.emplace_back(s);
  // Axes iterate sorted by key: fault outer, severity inner.
  spec.grid["fault"] = faults;
  spec.grid["severity"] = severities;
  return spec;
}

runner::CampaignSpec clean_soak_spec() {
  runner::CampaignSpec spec;
  spec.name = "gray_detection_clean";
  spec.experiment = "gray_detection";
  spec.fixed["arch"] = "rotornet-direct-hybrid";
  spec.fixed["tors"] = 8;
  spec.fixed["hosts"] = 1;
  spec.fixed["uplinks"] = 1;
  spec.fixed["fault"] = "none";
  spec.fixed["duration_ms"] = 30;
  spec.fixed["suspect_score"] = 0.03;
  json::Array seeds;
  for (const int s : {1, 7, 11, 42, 2024}) seeds.emplace_back(s);
  spec.grid["net_seed"] = seeds;
  return spec;
}

std::int64_t geti(const json::Object& r, const char* k) {
  return r.at(k).as_int();
}

json::Object row_json(const runner::RunRecord& rec) {
  const json::Object& r = rec.result;
  json::Object o;
  o["fault"] = r.at("fault");
  o["severity"] = r.at("severity");
  o["detected"] = r.at("detected");
  o["suspect_us"] = r.at("suspect_us");
  o["quarantine_us"] = r.at("quarantine_us");
  o["blame_cause"] = r.at("blame_cause");
  o["blame_port"] = r.at("blame_port");
  o["blame_peer"] = r.at("blame_peer");
  o["localized"] = r.at("localized");
  o["false_positives"] = r.at("false_positives");
  o["quarantines"] = r.at("quarantines");
  o["readmissions"] = r.at("readmissions");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_gray.json";
  bench::banner(
      "Gray-failure detection: evidence-based health scanner vs. four "
      "silent fault kinds (8-ToR hybrid rotor, 100 us slices)",
      "every kind localized from observable symptoms alone — conservation "
      "deltas, tomography, targeted probes, claim-vs-behavior — with zero "
      "false positives; clean seeds never suspect anyone");

  std::printf("  %-16s %-9s %10s %13s %-16s %9s %5s\n", "fault", "severity",
              "detect(us)", "quarantine(us)", "blame", "FPs", "ok");

  const auto sweep = fault_sweep_spec();
  auto engine = bench::run_campaign(sweep);

  bool ok = true;
  json::Array fault_rows;
  for (const auto& rec : engine.records()) {
    const json::Object& r = rec.result;
    const bool localized = r.at("localized").as_bool();
    const bool clean = geti(r, "false_positives") == 0;
    std::printf("  %-16s %-9.1f %10.1f %13.1f %-16s %9lld %5s\n",
                r.at("fault").as_string().c_str(),
                r.at("severity").as_double(), r.at("suspect_us").as_double(),
                r.at("quarantine_us").as_double(),
                r.at("blame_cause").as_string().c_str(),
                static_cast<long long>(geti(r, "false_positives")),
                localized && clean ? "yes" : "NO");
    ok = ok && localized && clean && r.at("detected").as_bool();
    fault_rows.push_back(row_json(rec));
  }

  std::printf("\nclean-seed soak (no fault injected):\n");
  const auto soak = clean_soak_spec();
  auto clean_engine = bench::run_campaign(soak);
  json::Array clean_rows;
  for (const auto& rec : clean_engine.records()) {
    const json::Object& r = rec.result;
    const std::int64_t suspects = geti(r, "suspects");
    std::printf("  net_seed=%-6lld audits=%-6lld suspects=%lld %s\n",
                static_cast<long long>(rec.params.at("net_seed").as_int()),
                static_cast<long long>(geti(r, "audits")),
                static_cast<long long>(suspects),
                suspects == 0 ? "quiet" : "FALSE POSITIVE");
    ok = ok && suspects == 0 && geti(r, "false_positives") == 0;
    json::Object o;
    o["net_seed"] = rec.params.at("net_seed");
    o["audits"] = r.at("audits");
    o["suspects"] = r.at("suspects");
    clean_rows.push_back(std::move(o));
  }

  // Determinism: both campaigns replayed single-threaded must be
  // byte-identical — detection times, blame, and counters are pure
  // functions of (seed, params).
  auto replay = bench::run_campaign(sweep, /*jobs=*/1);
  auto clean_replay = bench::run_campaign(soak, /*jobs=*/1);
  if (engine.results_jsonl() != replay.results_jsonl() ||
      clean_engine.results_jsonl() != clean_replay.results_jsonl()) {
    std::printf("FAILED: --jobs %d and --jobs 1 campaigns diverged\n",
                bench::default_jobs());
    return 2;
  }
  std::printf("determinism: %d-run sweep + %d-run soak replayed "
              "byte-identical at --jobs 1\n",
              engine.summary().total, clean_engine.summary().total);

  json::Object doc;
  doc["bench"] = "gray_detection";
  doc["fault_sweep"] = std::move(fault_rows);
  doc["clean_soak"] = std::move(clean_rows);
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  const std::string text = json::Value(std::move(doc)).dump(2);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());

  if (!ok) {
    std::printf("FAILED: detection expectations not met\n");
    return 2;
  }
  std::printf("gray detection bench passed\n");
  return 0;
}
