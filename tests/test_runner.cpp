#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>

#include "runner/campaign.h"
#include "runner/experiments.h"
#include "runner/manifest.h"
#include "runner/runner.h"

namespace oo::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CampaignSpec small_spec(int replicas = 1) {
  CampaignSpec spec;
  spec.name = "t";
  spec.experiment = "selftest";
  spec.seed = 42;
  spec.replicas = replicas;
  json::Array a, b;
  a.emplace_back("x");
  a.emplace_back("y");
  b.emplace_back(1);
  b.emplace_back(2);
  b.emplace_back(3);
  spec.grid["alpha"] = a;
  spec.grid["beta"] = b;
  return spec;
}

// A deterministic toy experiment: result depends only on the run's derived
// seed and params, so any execution schedule must reproduce it.
json::Object toy(RunContext& ctx) {
  Rng rng = ctx.rng();
  json::Object o;
  o["draw"] = static_cast<std::int64_t>(rng.next_u64());
  o["beta2"] = 2 * ctx.param_int("beta", 0);
  o["alpha"] = ctx.param_string("alpha", "");
  return o;
}

TEST(Campaign, GridExpansionOrderAndSeeds) {
  CampaignSpec spec = small_spec(/*replicas=*/2);
  EXPECT_EQ(spec.num_runs(), 12u);  // 2 x 3 x 2 replicas
  const auto runs = spec.expand();
  ASSERT_EQ(runs.size(), 12u);

  // Axes iterate in sorted-key order (alpha outer, beta inner), replicas
  // innermost; index equals position.
  EXPECT_EQ(runs[0].params.at("alpha").as_string(), "x");
  EXPECT_EQ(runs[0].params.at("beta").as_int(), 1);
  EXPECT_EQ(runs[0].replica, 0);
  EXPECT_EQ(runs[1].replica, 1);
  EXPECT_EQ(runs[2].params.at("beta").as_int(), 2);
  EXPECT_EQ(runs[6].params.at("alpha").as_string(), "y");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, static_cast<int>(i));
    EXPECT_EQ(runs[i].seed, derive_seed(42, i, "run"));
  }
  // All derived seeds distinct.
  std::set<std::uint64_t> seeds;
  for (const auto& r : runs) seeds.insert(r.seed);
  EXPECT_EQ(seeds.size(), runs.size());
}

TEST(Campaign, PatchesOverlayMatchingRuns) {
  CampaignSpec spec = small_spec();
  CampaignSpec::Patch p;
  p.match["alpha"] = "y";
  p.set["gamma"] = 99;
  spec.patches.push_back(p);
  const auto runs = spec.expand();
  for (const auto& r : runs) {
    const bool is_y = r.params.at("alpha").as_string() == "y";
    EXPECT_EQ(r.params.count("gamma") == 1, is_y);
    if (is_y) {
      EXPECT_EQ(r.params.at("gamma").as_int(), 99);
    }
  }
}

TEST(Campaign, SpecJsonRoundTrip) {
  CampaignSpec spec = small_spec(3);
  spec.max_attempts = 4;
  CampaignSpec::Patch p;
  p.match["alpha"] = "x";
  p.set["delta"] = 1.5;
  spec.patches.push_back(p);
  const CampaignSpec back = CampaignSpec::from_json(spec.to_json().dump());
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.replicas, 3);
  EXPECT_EQ(back.max_attempts, 4);
  ASSERT_EQ(back.patches.size(), 1u);
  // Same expansion, run for run.
  const auto a = spec.expand(), b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(json::Value{a[i].params}.dump(),
              json::Value{b[i].params}.dump());
  }
}

TEST(Campaign, SpecValidation) {
  EXPECT_THROW(CampaignSpec::from_json(R"({"name": "x"})"),
               std::runtime_error);  // missing experiment
  EXPECT_THROW(
      CampaignSpec::from_json(
          R"({"experiment": "e", "grid": {"a": []}})"),
      std::runtime_error);  // empty axis
  EXPECT_THROW(
      CampaignSpec::from_json(
          R"({"experiment": "e", "fixed": {"a": 1}, "grid": {"a": [2]}})"),
      std::runtime_error);  // fixed/grid collision
  EXPECT_THROW(CampaignSpec::from_json(
                   R"({"experiment": "e", "replicas": 0})"),
               std::runtime_error);
}

TEST(Runner, JobsDoNotChangeResults) {
  CampaignSpec spec = small_spec(/*replicas=*/2);
  const std::string dir1 = testing::TempDir() + "oo_runner_j1";
  const std::string dir8 = testing::TempDir() + "oo_runner_j8";

  RunnerOptions o1;
  o1.jobs = 1;
  o1.out_dir = dir1;
  CampaignRunner r1(spec, toy, o1);
  r1.run();

  RunnerOptions o8;
  o8.jobs = 8;
  o8.out_dir = dir8;
  CampaignRunner r8(spec, toy, o8);
  r8.run();

  // Byte-identical in memory and on disk.
  EXPECT_EQ(r1.results_jsonl(), r8.results_jsonl());
  EXPECT_EQ(r1.results_csv(), r8.results_csv());
  EXPECT_EQ(slurp(dir1 + "/results.jsonl"), slurp(dir8 + "/results.jsonl"));
  EXPECT_EQ(slurp(dir1 + "/results.csv"), slurp(dir8 + "/results.csv"));
  EXPECT_FALSE(r1.results_jsonl().empty());
}

TEST(Runner, ThrowingRunIsRecordedFailedAndRetried) {
  CampaignSpec spec = small_spec();
  spec.max_attempts = 3;
  const std::string dir = testing::TempDir() + "oo_runner_retry";

  // Run 2 fails on its first two attempts (environmental flake), run 4
  // fails every attempt (hard failure).
  std::atomic<int> run2_attempts{0};
  auto fn = [&](RunContext& ctx) -> json::Object {
    if (ctx.spec.index == 2 && run2_attempts.fetch_add(1) < 2) {
      throw std::runtime_error("flaky environment");
    }
    if (ctx.spec.index == 4) throw std::runtime_error("hard failure");
    return toy(ctx);
  };

  RunnerOptions opt;
  opt.jobs = 4;
  opt.out_dir = dir;
  CampaignRunner r(spec, fn, opt);
  const auto s = r.run();

  // The campaign completed despite the failures.
  EXPECT_EQ(s.total, 6);
  EXPECT_EQ(s.ok, 5);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.retries, 2 + 2);  // two flakes + two futile retries of run 4

  const auto& rec2 = r.records()[2];
  EXPECT_EQ(rec2.status, RunStatus::Ok);
  EXPECT_EQ(rec2.attempts, 3);
  const auto& rec4 = r.records()[4];
  EXPECT_EQ(rec4.status, RunStatus::Failed);
  EXPECT_EQ(rec4.attempts, 3);
  EXPECT_EQ(rec4.error, "hard failure");
  EXPECT_TRUE(rec4.result.empty());

  // The manifest's latest line per run agrees.
  const auto loaded = Manifest(dir + "/manifest.jsonl").load();
  EXPECT_EQ(loaded.at(2).status, RunStatus::Ok);
  EXPECT_EQ(loaded.at(2).attempts, 3);
  EXPECT_EQ(loaded.at(4).status, RunStatus::Failed);
  EXPECT_EQ(loaded.at(4).error, "hard failure");

  // Failed runs still appear in the deterministic outputs, marked failed.
  EXPECT_NE(r.results_csv().find("failed"), std::string::npos);
}

TEST(Runner, ResumeSkipsCompletedRuns) {
  CampaignSpec spec = small_spec();
  spec.max_attempts = 1;
  const std::string dir = testing::TempDir() + "oo_runner_resume";

  // First invocation: runs 1 and 3 fail ("interrupted" campaign state).
  auto failing = [&](RunContext& ctx) -> json::Object {
    if (ctx.spec.index == 1 || ctx.spec.index == 3) {
      throw std::runtime_error("interrupted");
    }
    return toy(ctx);
  };
  RunnerOptions opt;
  opt.jobs = 2;
  opt.out_dir = dir;
  CampaignRunner first(spec, failing, opt);
  EXPECT_EQ(first.run().failed, 2);

  // Second invocation with --resume: only the two unfinished runs execute.
  std::atomic<int> executed{0};
  auto counting = [&](RunContext& ctx) -> json::Object {
    executed.fetch_add(1);
    return toy(ctx);
  };
  opt.resume = true;
  CampaignRunner second(spec, counting, opt);
  const auto s = second.run();
  EXPECT_EQ(executed.load(), 2);
  EXPECT_EQ(s.skipped, 4);
  EXPECT_EQ(s.executed, 2);
  EXPECT_EQ(s.ok, 6);
  EXPECT_EQ(s.failed, 0);

  // The resumed campaign's outputs equal a clean single-shot run's.
  const std::string clean_dir = testing::TempDir() + "oo_runner_clean";
  RunnerOptions clean_opt;
  clean_opt.jobs = 1;
  clean_opt.out_dir = clean_dir;
  CampaignRunner clean(spec, toy, clean_opt);
  clean.run();
  EXPECT_EQ(second.results_jsonl(), clean.results_jsonl());
  EXPECT_EQ(second.results_csv(), clean.results_csv());
}

TEST(Manifest, RecordRoundTripsThroughJson) {
  RunRecord rec;
  rec.index = 7;
  rec.replica = 1;
  rec.seed = 0xdeadbeefcafeULL;
  rec.status = RunStatus::Failed;
  rec.attempts = 2;
  rec.error = "boom: went \"sideways\"\nbadly";
  rec.wall_ms = 12.5;
  rec.sim_events = 1234567;
  rec.params["arch"] = "clos";
  rec.params["ppm"] = 500.0;
  rec.result["p50_us"] = 42.25;

  const RunRecord back = RunRecord::from_json(
      json::parse(rec.to_json().dump()));
  EXPECT_EQ(back.index, rec.index);
  EXPECT_EQ(back.replica, rec.replica);
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.status, rec.status);
  EXPECT_EQ(back.attempts, rec.attempts);
  EXPECT_EQ(back.error, rec.error);
  EXPECT_DOUBLE_EQ(back.wall_ms, rec.wall_ms);
  EXPECT_EQ(back.sim_events, rec.sim_events);
  EXPECT_EQ(json::Value{back.params}.dump(),
            json::Value{rec.params}.dump());
  EXPECT_EQ(json::Value{back.result}.dump(),
            json::Value{rec.result}.dump());
}

TEST(Manifest, LoadSkipsTruncatedTailLine) {
  const std::string path = testing::TempDir() + "oo_manifest_trunc.jsonl";
  Manifest m(path);
  m.reset();
  RunRecord rec;
  rec.index = 0;
  rec.status = RunStatus::Ok;
  rec.attempts = 1;
  m.append(rec);
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"run": 1, "status": "ok", "atte)";  // crashed mid-write
  }
  const auto loaded = m.load();
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.count(0));
}

TEST(Runner, TelemetryCountersPopulated) {
  CampaignSpec spec = small_spec();
  RunnerOptions opt;
  opt.jobs = 2;
  CampaignRunner r(spec, toy, opt);
  const auto s = r.run();
  EXPECT_EQ(r.metrics().counter_value("campaign.runs",
                                      {{"status", "ok"}}),
            s.ok);
  EXPECT_EQ(r.metrics().counter_value("campaign.runs",
                                      {{"status", "failed"}}),
            0);
  const auto* h = r.metrics().find_histogram("campaign.run_wall_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), static_cast<std::size_t>(s.executed));
  EXPECT_GT(s.speedup(), 0.0);
}

TEST(Experiments, RegistryLookupAndInjection) {
  EXPECT_NO_THROW(find_experiment("fct"));
  EXPECT_NO_THROW(find_experiment("sync_resilience"));
  EXPECT_THROW(find_experiment("no-such-experiment"), std::runtime_error);
  const auto names = experiment_names();
  EXPECT_GE(names.size(), 4u);

  // The built-ins honour flaky_runs/fail_runs (campaign machinery drills).
  CampaignSpec spec;
  spec.experiment = "selftest";
  spec.max_attempts = 2;
  json::Array axis;
  axis.emplace_back(1);
  axis.emplace_back(2);
  spec.grid["knob"] = axis;
  json::Array flaky;
  flaky.emplace_back(1);
  spec.fixed["flaky_runs"] = flaky;

  RunnerOptions opt;
  CampaignRunner r(spec, find_experiment("selftest"), opt);
  const auto s = r.run();
  EXPECT_EQ(s.ok, 2);
  EXPECT_EQ(s.retries, 1);
  EXPECT_EQ(r.records()[1].attempts, 2);
}

// ---- committed chaos specs: each cell's row holds its drill's gates ----

// Runs the first cell of examples/specs/<file> whose params equal every
// entry of `want`, with the seed and the attempts the campaign gives it, and
// returns its result row.
json::Object spec_cell_row(const std::string& file, const json::Object& want) {
  const CampaignSpec spec =
      CampaignSpec::from_file(std::string(OO_SPEC_DIR) + "/" + file);
  for (const RunSpec& run : spec.expand()) {
    bool hit = true;
    for (const auto& [k, v] : want) {
      const auto it = run.params.find(k);
      hit = hit && it != run.params.end() && it->second.dump() == v.dump();
    }
    if (!hit) continue;
    for (int attempt = 1;; ++attempt) {
      try {
        RunContext ctx{run, attempt};
        return find_experiment(spec.experiment)(ctx);
      } catch (const std::exception&) {
        if (attempt >= spec.max_attempts) throw;
      }
    }
  }
  ADD_FAILURE() << "no cell of " << file << " matches "
                << json::Value(want).dump();
  return {};
}

json::Object control_chaos_cell(bool fencing) {
  return spec_cell_row("control_chaos.json", {{"fencing", fencing},
                                              {"sb_loss_prob", 1.0},
                                              {"sb_latency_us", 20.0}});
}

// Total install loss to one ToR under port churn, fabric-wide duplication
// and a controller crash: the transaction aborts and rolls back through the
// loss window, fences the echoes, resyncs once after the restart, and never
// forwards on mixed epochs.
TEST(ChaosSpecCells, ControlChaosFencedCellContainsTheLossySouthbound) {
  const json::Object row = control_chaos_cell(true);
  const std::string dump = json::Value(row).dump();
  EXPECT_EQ(row.at("mixed_epoch_slices").as_int(), 0) << dump;
  EXPECT_GE(row.at("txn_commits").as_int(), 2) << dump;
  EXPECT_GE(row.at("txn_aborts").as_int(), 1) << dump;
  EXPECT_GE(row.at("txn_rollbacks").as_int(), 1) << dump;
  EXPECT_EQ(row.at("resyncs").as_int(), 1) << dump;
  EXPECT_GE(row.at("deploys_rejected").as_int(), 1) << dump;
  EXPECT_GE(row.at("sb_lost").as_int(), 1) << dump;
  EXPECT_GE(row.at("sb_duped").as_int(), 1) << dump;
  EXPECT_GE(row.at("recoveries").as_int(), 1) << dump;
  EXPECT_GE(row.at("retries").as_int(), 1) << dump;
}

// The legacy scatter baseline under the same script exposes the mixed-epoch
// slices the fenced transaction hides.
TEST(ChaosSpecCells, ControlChaosScatterCellExposesMixedEpochs) {
  const json::Object row = control_chaos_cell(false);
  EXPECT_GT(row.at("mixed_epoch_slices").as_int(), 0)
      << json::Value(row).dump();
}

// Leader killed mid-run, a log divergence and a replica partition on a
// 3-replica quorum: leadership moves, the diverged log heals, takeovers
// resync, deploys keep committing, and no dead-term epoch leaks.
TEST(ChaosSpecCells, QuorumChaosThreeReplicaCellFailsOverCleanly) {
  const json::Object row = spec_cell_row(
      "quorum_chaos.json",
      {{"controller_replicas", std::int64_t{3}}, {"sb_loss_prob", 0.0}});
  const std::string dump = json::Value(row).dump();
  EXPECT_GE(row.at("failovers").as_int(), 1) << dump;
  EXPECT_GE(row.at("elections").as_int(), 1) << dump;
  EXPECT_GE(row.at("term").as_int(), 2) << dump;
  EXPECT_GE(row.at("log_repairs").as_int(), 1) << dump;
  EXPECT_GE(row.at("resyncs").as_int(), 1) << dump;
  EXPECT_GE(row.at("txn_commits").as_int(), 2) << dump;
  EXPECT_EQ(row.at("mixed_epoch_slices").as_int(), 0) << dump;
}

// An 8000 ppm drift with its beacons suppressed: the drifted ToR launches
// into wrong slices before the watchdog fences it, launches none after, and
// is re-admitted once beacons resume. The unwatched twin keeps misfiring.
TEST(ChaosSpecCells, ClockChaosWatchdogCellFencesAndReadmitsTheDrift) {
  const json::Object row = spec_cell_row(
      "ci_campaign.json", {{"ppm", 8000.0}, {"watchdog", true}});
  const json::Object unwatched = spec_cell_row(
      "ci_campaign.json", {{"ppm", 8000.0}, {"watchdog", false}});
  const std::string dump = json::Value(row).dump();
  EXPECT_GE(row.at("desyncs").as_int(), 1) << dump;
  EXPECT_GE(row.at("quarantines").as_int(), 1) << dump;
  EXPECT_GE(row.at("readmissions").as_int(), 1) << dump;
  EXPECT_GT(row.at("wrong_at_quarantine").as_int(), 0) << dump;
  EXPECT_EQ(row.at("wrong_slice").as_int(),
            row.at("wrong_at_quarantine").as_int())
      << dump;
  EXPECT_LT(row.at("wrong_slice").as_int(),
            unwatched.at("wrong_slice").as_int())
      << json::Value(unwatched).dump();
}

// One cell per gray kind plus a clean control: each fault is blamed on the
// injected component, walks the ladder to quarantine and back out, and no
// honest node is ever suspected. Probes corroborate every lossy kind.
TEST(ChaosSpecCells, GrayChaosCellsLocalizeEveryKind) {
  // `localized` also matches the blamed port (and peer) to the patch's.
  struct Want {
    const char* fault;
    const char* cause;
    bool probes_lost;
  };
  const Want wants[] = {{"ber_ramp", "port_degrade", true},
                        {"gray_pair", "link_loss", true},
                        {"telemetry_skew", "telemetry_skew", true},
                        {"silent_install", "silent_install", false}};
  for (const Want& w : wants) {
    const json::Object row =
        spec_cell_row("gray_chaos.json", {{"fault", std::string(w.fault)}});
    const std::string dump = json::Value(row).dump();
    EXPECT_TRUE(row.at("localized").as_bool()) << dump;
    EXPECT_EQ(row.at("blame_cause").as_string(), w.cause) << dump;
    EXPECT_EQ(row.at("false_positives").as_int(), 0) << dump;
    EXPECT_GE(row.at("quarantines").as_int(), 1) << dump;
    EXPECT_GE(row.at("readmissions").as_int(), 1) << dump;
    if (w.probes_lost) {
      EXPECT_GE(row.at("probes_lost").as_int(), 1) << dump;
    }
  }
  const json::Object clean =
      spec_cell_row("gray_chaos.json", {{"fault", std::string("none")}});
  EXPECT_EQ(clean.at("suspects").as_int(), 0) << json::Value(clean).dump();
}

}  // namespace
}  // namespace oo::runner
