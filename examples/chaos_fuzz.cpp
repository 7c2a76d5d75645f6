// chaos_fuzz — seeded chaos fuzzing with automatic fault-plan shrinking:
//
//   chaos_fuzz [--seed N] [--runs N] [--events N] [--intensity X]
//              [--tors N] [--replicas N] [--duration-us N] [--shards N]
//              [--plant-bug] [--no-minimize] [--replay FILE]
//              [--out DIR]
//
// Each run fuzzes a structurally valid FaultPlan from its seed
// (src/chaos/fuzz.h), executes it against a live hybrid-rotor fabric under
// the always-on invariant monitor (src/chaos/invariants.h), and reports
// any violations. A violating plan is delta-debugged to a 1-minimal
// reproducer (src/chaos/shrink.h) and written to DIR/reproducer.json with
// the exact replay command; --replay FILE re-executes such an artifact
// deterministically. --plant-bug registers a deliberately broken invariant
// so the whole fuzz -> catch -> shrink -> replay loop can be demonstrated
// (and is CI-tested) end to end.
//
// Exit status: 0 when every run's invariants hold (or the planted bug is
// the only trip under --plant-bug), 1 on a real, unexplained violation.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/shrink.h"
#include "common/cli.h"
#include "runner/experiments.h"
#include "runner/runner.h"

using namespace oo;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int runs = 1, events = 12, tors = 4, replicas = 1, shards = 0;
  std::int64_t duration_us = 3000;
  double intensity = 1.0;
  bool plant_bug = false, no_minimize = false;
  std::string replay_path, out_dir;

  cli::ArgParser args("chaos_fuzz",
                      "seeded chaos fuzzing under the invariant monitor");
  args.option("--seed", &seed, "first fuzz seed (default 1)")
      .option("--runs", &runs, "consecutive seeds to fuzz (default 1)")
      .option("--events", &events, "fault events per plan (default 12)")
      .option("--intensity", &intensity,
              "severity knob, scales count/durations/probs (default 1.0)")
      .option("--tors", &tors, "fabric size (default 4)")
      .option("--replicas", &replicas,
              "controller replicas; >1 unlocks quorum faults (default 1)")
      .option("--duration-us", &duration_us,
              "run length in simulated microseconds (default 3000)")
      .option("--shards", &shards,
              "worker shards for the parallel engine (default 0 = legacy "
              "single-queue engine)")
      .flag("--plant-bug", &plant_bug,
            "register a deliberately broken invariant (demo/CI)")
      .flag("--no-minimize", &no_minimize,
            "report violations without shrinking the plan")
      .option("--replay", &replay_path,
              "re-run a reproducer.json instead of fuzzing")
      .option("--out", &out_dir, "directory for reproducer.json artifacts");
  if (!args.parse(argc, argv)) return 1;

  auto fn = runner::find_experiment("chaos_fuzz");
  int real_violations = 0;

  for (int r = 0; r < runs; ++r) {
    const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(r);
    runner::RunSpec spec;
    spec.index = r;
    spec.seed = run_seed;
    spec.params["fuzz_seed"] = static_cast<std::int64_t>(run_seed);
    spec.params["events"] = static_cast<std::int64_t>(events);
    spec.params["intensity"] = intensity;
    spec.params["tors"] = static_cast<std::int64_t>(tors);
    spec.params["controller_replicas"] =
        static_cast<std::int64_t>(replicas);
    spec.params["duration_us"] = static_cast<double>(duration_us);
    spec.params["shards"] = static_cast<std::int64_t>(shards);
    spec.params["plant_bug"] = plant_bug;
    spec.params["minimize"] = !no_minimize;
    if (!replay_path.empty()) {
      spec.params["plan_json"] = read_file(replay_path);
    }

    runner::RunContext ctx{spec, /*attempt=*/1};
    json::Object row;
    try {
      row = fn(ctx);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "seed %llu: run crashed: %s\n",
                   static_cast<unsigned long long>(run_seed), e.what());
      ++real_violations;
      continue;
    }

    const auto violations = row.at("violations").as_int();
    std::printf("seed %llu: %lld events, %lld violations\n",
                static_cast<unsigned long long>(run_seed),
                static_cast<long long>(row.at("plan_events").as_int()),
                static_cast<long long>(violations));
    if (violations == 0) continue;

    std::printf("%s", row.at("report").as_string().c_str());
    const bool planted_only =
        plant_bug &&
        row.at("report").as_string().find("planted") != std::string::npos;
    if (!planted_only) ++real_violations;

    if (row.count("reproducer") != 0U) {
      const auto& mini = row.at("reproducer");
      std::printf(
          "minimized to %lld events in %lld probes (reproduced: %s)\n",
          static_cast<long long>(row.at("minimal_events").as_int()),
          static_cast<long long>(row.at("shrink_probes").as_int()),
          row.at("shrink_reproduced").as_bool() ? "yes" : "no");
      if (!out_dir.empty()) {
        const std::string path = out_dir + "/reproducer.json";
        const std::string replay_cmd =
            "chaos_fuzz --seed " + std::to_string(run_seed) + " --tors " +
            std::to_string(tors) + " --replicas " +
            std::to_string(replicas) + " --duration-us " +
            std::to_string(duration_us) +
            (plant_bug ? " --plant-bug" : "") + " --replay " + path;
        chaos::write_reproducer(
            path, services::parse_fault_events(mini), run_seed,
            row.at("report").as_string(), replay_cmd);
        std::printf("wrote %s\nreplay: %s\n", path.c_str(),
                    replay_cmd.c_str());
      }
    }
  }

  if (real_violations > 0) {
    std::fprintf(stderr, "chaos_fuzz: %d run(s) with real violations\n",
                 real_violations);
    return 1;
  }
  std::printf("chaos_fuzz: all invariants held\n");
  return 0;
}
