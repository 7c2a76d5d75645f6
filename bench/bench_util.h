// Shared helpers for the reproduction benches: consistent table printing,
// the paper-expectation banner each bench emits next to its measured rows
// (EXPERIMENTS.md records both), the claim gate that fails a bench when a
// reproduced claim breaks, and thin wrappers over the campaign runner
// (src/runner/) so sweep benches declare a spec instead of hand-rolling
// the loop.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "runner/experiments.h"
#include "runner/runner.h"

namespace oo::bench {

inline void banner(const char* experiment, const char* paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_expectation);
  std::printf("==============================================================\n");
}

// The claims a paper bench reproduces (EXPERIMENTS.md). Each failed claim
// prints "FAILED: <what>"; main() returns finish(), which is 2 after any
// failure and otherwise prints the bench's pass line and returns 0.
// Judge a printed value at its printed precision (printed() below).
class Gate {
 public:
  __attribute__((format(printf, 3, 4))) void check(bool holds,
                                                   const char* what, ...) {
    if (holds) return;
    ok_ = false;
    std::printf("FAILED: ");
    std::va_list args;
    va_start(args, what);
    std::vprintf(what, args);
    va_end(args);
    std::printf("\n");
  }

  int finish(const char* passed) const {
    if (!ok_) return 2;
    std::printf("%s\n", passed);
    return 0;
  }

 private:
  bool ok_ = true;
};

// `v` as printf's "%.<decimals>f" shows it.
inline double printed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return std::strtod(buf, nullptr);
}

inline void fct_row(const std::string& label, const PercentileSampler& s) {
  std::printf("  %-22s n=%6zu  p50=%9.1f  p90=%9.1f  p99=%9.1f  max=%9.1f us\n",
              label.c_str(), s.count(), s.percentile(50), s.percentile(90),
              s.percentile(99), s.max());
}

// The same row from a campaign result produced by the "fct" experiment.
inline void fct_row(const std::string& label, const json::Object& r) {
  const auto num = [&r](const char* k) {
    const auto it = r.find(k);
    return it == r.end() ? 0.0 : it->second.as_double();
  };
  std::printf("  %-22s n=%6lld  p50=%9.1f  p90=%9.1f  p99=%9.1f  max=%9.1f us\n",
              label.c_str(),
              static_cast<long long>(r.count("n") ? r.at("n").as_int() : 0),
              num("p50_us"), num("p90_us"), num("p99_us"), num("max_us"));
}

// Worker count for bench campaigns: OO_JOBS env override, else the
// machine's cores capped at 8. Results are --jobs-independent by
// construction; this only changes wall-clock.
inline int default_jobs() {
  if (const char* env = std::getenv("OO_JOBS")) {
    const int j = std::atoi(env);
    if (j >= 1) return j;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw > 8 ? 8 : hw);
}

// Run `spec` in-process on the registered experiment and return the
// engine (records ordered by run index, metrics populated). Failed runs
// abort the bench loudly — a reproduction table with silent holes is
// worse than no table.
inline runner::CampaignRunner run_campaign(const runner::CampaignSpec& spec,
                                           int jobs = default_jobs()) {
  runner::RunnerOptions opt;
  opt.jobs = jobs;
  runner::CampaignRunner engine(
      spec, runner::find_experiment(spec.experiment), opt);
  const auto s = engine.run();
  if (s.failed > 0) {
    for (const auto& rec : engine.records()) {
      if (rec.status == runner::RunStatus::Failed) {
        std::fprintf(stderr, "run %d failed: %s\n", rec.index,
                     rec.error.c_str());
      }
    }
    std::fprintf(stderr, "campaign %s: %d/%d runs failed\n",
                 spec.name.c_str(), s.failed, s.total);
    std::exit(2);
  }
  return engine;
}

}  // namespace oo::bench
