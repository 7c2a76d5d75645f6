// One repetition of one benchmark workload, run in its own process so that
// its peak RSS belongs to it alone. perfbench/run.py starts this binary many
// times and aggregates; this file only sets up, runs, and reports.
//
//   oo_perfbench --workload rotor128 --seed 3 [--traced] [--horizon-us 8000]
//
// Prints one JSON object on stdout. Untraced, it carries the set-up and run
// wall times and the deterministic counts the output check compares. With
// --traced it attaches a telemetry::EventProfiler for the run and adds
// per-layer timings: the preset's routing compile and a TimeFlowTable
// lookup sample, each timed on its own outside the set-up and run phases.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "routing/to_routing.h"
#include "runner/experiments.h"
#include "telemetry/profiler.h"
#include "traffic/engine.h"
#include "workload/traces.h"

using namespace oo;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  // Workloads with equal `inputs` run the same spec on the same fabric and
  // must emit the same flow stream (same stream_fingerprint).
  const char* inputs;
  const char* arch;
  int tors;
  int uplinks;
  int shards;
  std::int64_t horizon_us;
  std::function<std::vector<core::Path>(const optics::Schedule&)> routing;
};

const std::vector<Workload>& workloads() {
  // rotor128 stays at 128 ToRs: at 256 the 255-slice period overflows the
  // 128-queue calendar cap and rank-overflow drops outnumber deliveries.
  static const std::vector<Workload> w = {
      {"rotor128", "rotor128", "rotornet-direct", 128, 1, 0, 8000,
       [](const optics::Schedule& s) { return routing::direct_to(s); }},
      {"opera64", "opera64", "opera", 64, 2, 0, 3000,
       [](const optics::Schedule& s) { return routing::opera(s); }},
      {"rotor128_sharded", "rotor128", "rotornet-direct", 128, 1, 2, 8000,
       [](const optics::Schedule& s) { return routing::direct_to(s); }},
  };
  return w;
}

traffic::TrafficSpec make_spec(int hosts, std::uint64_t seed) {
  traffic::TrafficSpec spec;
  spec.sources = static_cast<std::int64_t>(hosts) * 16;
  spec.load = 0.3;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.05;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);
  spec.burst.enabled = true;
  spec.hybrid_threshold = 1 << 20;
  spec.seed = seed;
  return spec;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Median ns per TimeFlowTable::lookup over a seeded sample of queries
// against the instance's installed tables: a random (node, arrival slice,
// source, destination) with destination != node, as a ToR's route() asks.
double tft_lookup_ns(core::Network& net, std::uint64_t seed,
                     std::int64_t* hits) {
  const int n = net.num_tors();
  const auto period = static_cast<std::uint32_t>(net.schedule().period());
  Rng rng = derive_rng(seed, 0, "perfbench.tft");
  struct Query {
    const core::TimeFlowTable* tft;
    SliceId arr;
    NodeId src;
    NodeId dst;
  };
  std::vector<Query> qs(100'000);
  for (auto& q : qs) {
    const auto node = static_cast<NodeId>(rng.uniform(n));
    q.tft = &net.tor(node).tft();
    q.arr = static_cast<SliceId>(rng.uniform(period));
    q.src = static_cast<NodeId>(rng.uniform(n));
    q.dst = static_cast<NodeId>(
        (node + 1 + static_cast<NodeId>(rng.uniform(n - 1))) % n);
  }
  std::vector<double> passes;
  *hits = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::int64_t h = 0;
    const auto t0 = Clock::now();
    for (const auto& q : qs) h += q.tft->lookup(q.arr, q.src, q.dst) != nullptr;
    passes.push_back(seconds_since(t0) * 1e9 / static_cast<double>(qs.size()));
    *hits = h;
  }
  std::sort(passes.begin(), passes.end());
  return passes[passes.size() / 2];
}

json::Object run(const Workload& w, std::uint64_t seed, bool traced,
                 std::int64_t horizon_us) {
  arch::Params p;
  p.tors = w.tors;
  p.hosts_per_tor = 2;
  p.uplinks = w.uplinks;
  p.shards = w.shards;
  p.seed = seed;

  telemetry::EventProfiler prof;
  const auto t_setup = Clock::now();
  auto inst = runner::make_arch(w.arch, p);
  const double arch_build_s = seconds_since(t_setup);
  core::Network& net = *inst.net;
  sim::Simulator& sim = net.sim();
  if (traced) sim.set_profiler(&prof);
  traffic::TrafficEngine eng(net, make_spec(net.num_hosts(), seed));
  const auto t_start = Clock::now();
  eng.start();
  const double traffic_start_s = seconds_since(t_start);
  const double setup_s = seconds_since(t_setup);

  const auto t_run = Clock::now();
  sim.run_until(SimTime::micros(horizon_us));
  const double run_s = seconds_since(t_run);
  sim.set_profiler(nullptr);
  eng.stop();

  const auto totals = net.totals();
  std::int64_t tft_entries = 0;
  for (NodeId n = 0; n < net.num_tors(); ++n) {
    tft_entries += static_cast<std::int64_t>(net.tor(n).tft().size());
  }

  json::Object o;
  o["workload"] = w.name;
  o["inputs"] = w.inputs;
  o["seed"] = static_cast<std::int64_t>(seed);
  o["horizon_us"] = horizon_us;
  o["traced"] = traced;
  o["compiler"] = OO_COMPILER;
  o["build_type"] = OO_BUILD_TYPE;
  o["setup_s"] = setup_s;
  o["arch_build_s"] = arch_build_s;
  o["traffic_start_s"] = traffic_start_s;
  o["run_s"] = run_s;
  o["events"] = sim.events_executed();
  o["events_pending"] = static_cast<std::int64_t>(sim.events_pending());
  o["compactions"] = sim.compactions();
  o["flows_emitted"] = eng.flows_emitted();
  o["flows_completed"] = eng.flows_completed();
  o["fingerprint"] = hex64(eng.stream_fingerprint());
  o["delivered"] = totals.delivered;
  o["injected"] = net.packets_injected();
  o["congestion_drops"] = totals.congestion_drops;
  o["fabric_drops"] = totals.fabric_drops;
  o["no_route_drops"] = totals.no_route_drops;
  o["tft_entries"] = tft_entries;
  const auto* engine = net.sharded_engine();
  o["windows"] = engine ? engine->stats().windows : std::int64_t{0};
  o["cross_delivered"] =
      engine ? engine->stats().cross_delivered : std::int64_t{0};

  if (traced) {
    json::Object tags;
    for (const auto& b : prof.buckets()) {
      tags[b.tag] = json::Array{json::Value(b.events), json::Value(b.wall_ns)};
    }
    o["profile"] = std::move(tags);
    o["profile_wall_ns"] = prof.total_wall_ns();
    o["queue_peak"] = static_cast<std::int64_t>(prof.peak_queue_depth());

    const auto t_routing = Clock::now();
    const auto paths = w.routing(net.schedule());
    o["routing_compile_s"] = seconds_since(t_routing);
    o["routing_paths"] = static_cast<std::int64_t>(paths.size());

    std::int64_t hits = 0;
    o["tft_lookup_ns"] = tft_lookup_ns(net, seed, &hits);
    o["tft_lookup_hits"] = hits;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::int64_t seed = 1;
  std::int64_t horizon_us = 0;
  bool traced = false;
  cli::ArgParser args("oo_perfbench", "one repetition of a benchmark workload");
  args.option("--workload", &name, "rotor128 | opera64 | rotor128_sharded")
      .option("--seed", &seed, "workload seed (arch and traffic)")
      .option("--horizon-us", &horizon_us, "simulated horizon (0 = workload's)")
      .flag("--traced", &traced, "attach the event profiler, time layers");
  if (!args.parse(argc, argv)) return 2;

  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return w.name == name; });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  try {
    const json::Object o =
        run(*it, static_cast<std::uint64_t>(seed), traced,
            horizon_us > 0 ? horizon_us : it->horizon_us);
    std::printf("%s\n", json::Value(o).dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oo_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
