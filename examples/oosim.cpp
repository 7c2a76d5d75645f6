// oosim — the educational toolkit (§5.3's Mininet analogue): run any of
// the bundled architectures against a workload from the command line, no
// code required.
//
//   oosim <arch> [options]
//
//   arch:       clos | cthrough | jupiter | mordia | rotornet-vlb |
//               rotornet-direct | rotornet-ucmp | rotornet-hoho | opera |
//               shale | semi-oblivious
//   --tors N        number of ToRs (default 8)
//   --hosts N       hosts per ToR (default 1)
//   --slice US      slice duration in microseconds (default 100)
//   --uplinks N     optical uplinks per ToR (default 1)
//   --workload W    kv | rpc | hadoop | kvstore (default kv): the KV
//                   request/response app, or closed-loop flows drawn from
//                   a trace's flow-size CDF (traffic::TrafficEngine)
//   --load F        offered load fraction for trace workloads (default 0.3)
//   --ms N          simulated milliseconds (default 100)
//   --seed N        RNG seed (default 1)
//   --csv PATH      write the FCT CDF as CSV
//   --trace=PATH    record a flight-recorder trace and write it as Chrome
//                   trace_event JSON (open in chrome://tracing or Perfetto)
#include <cstdio>
#include <memory>
#include <string>

#include "arch/arch.h"
#include "common/cli.h"
#include "runner/experiments.h"
#include "services/export.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace_export.h"
#include "traffic/engine.h"
#include "workload/kv.h"
#include "workload/traces.h"

using namespace oo;
using namespace oo::literals;

int main(int argc, char** argv) {
  arch::Params p;
  std::string arch_name, workload = "kv", csv_path, trace_path;
  double load = 0.3, slice_us = 100.0;
  int ms = 100;

  cli::ArgParser args(
      "oosim",
      "archs: clos cthrough jupiter mordia rotornet-vlb rotornet-direct\n"
      "       rotornet-ucmp rotornet-hoho opera shale semi-oblivious");
  args.positional("arch", &arch_name, "architecture preset")
      .option("--tors", &p.tors, "number of ToRs (default 8)")
      .option("--hosts", &p.hosts_per_tor, "hosts per ToR (default 1)")
      .option("--slice", &slice_us, "slice duration us (default 100)")
      .option("--uplinks", &p.uplinks, "optical uplinks per ToR (default 1)")
      .option("--workload", &workload, "kv | rpc | hadoop | kvstore")
      .option("--load", &load, "offered load fraction for traces")
      .option("--ms", &ms, "simulated milliseconds (default 100)")
      .option("--seed", &p.seed, "RNG seed (default 1)")
      .option("--csv", &csv_path, "write the FCT CDF as CSV")
      .option("--trace", &trace_path, "write a Chrome trace_event JSON");
  if (!args.parse(argc, argv)) return 1;
  p.slice = SimTime::nanos(static_cast<std::int64_t>(slice_us * 1e3));

  try {
    auto inst = runner::make_arch(arch_name, p);
    telemetry::FlightRecorder recorder(std::size_t{1} << 16);
    if (!trace_path.empty()) inst.net->sim().set_recorder(&recorder);
    std::printf("architecture: %s  (%d ToRs x %d hosts, %s)\n",
                inst.name.c_str(), p.tors, p.hosts_per_tor,
                inst.net->schedule().summary().c_str());

    std::unique_ptr<workload::KvWorkload> kv;
    std::unique_ptr<traffic::TrafficEngine> trace;
    PercentileSampler trace_fct;
    const PercentileSampler* fct = nullptr;
    if (workload == "kv") {
      std::vector<HostId> clients;
      for (HostId h = 1; h < inst.net->num_hosts(); ++h) clients.push_back(h);
      kv = std::make_unique<workload::KvWorkload>(*inst.net, 0, clients,
                                                  2_ms);
      kv->start();
      fct = &kv->fct_us();
    } else {
      if (workload != "rpc" && workload != "hadoop" && workload != "kvstore") {
        throw std::runtime_error("unknown workload: " + workload);
      }
      traffic::TrafficSpec spec;
      spec.sources = inst.net->num_hosts();  // one arrival stream per host
      spec.load = load;
      spec.seed = p.seed;
      spec.size.base = workload::trace_cdf_by_name(workload);
      trace = std::make_unique<traffic::TrafficEngine>(*inst.net,
                                                       std::move(spec));
      trace->start();
      fct = &trace_fct;
    }

    inst.run_for(SimTime::millis(ms));
    if (kv) kv->stop();
    auto n = static_cast<long long>(fct->count());
    double max = fct->max();
    if (trace) {
      trace->stop();
      // Mice FCT percentiles come from the engine's bounded reservoir
      // (every mouse up to its 65,536-sample cap, a uniform subsample
      // beyond); n and max cover every completed mouse.
      const auto& mice = trace->mice_fct_us();
      for (double us : mice.samples()) trace_fct.add(us);
      n = mice.count();
      max = mice.max();
    }

    std::printf("\nflow completion times (us):\n");
    std::printf("  n=%lld  p50=%.1f  p90=%.1f  p99=%.1f  max=%.1f\n", n,
                fct->percentile(50), fct->percentile(90),
                fct->percentile(99), max);
    const auto t = inst.net->totals();
    std::printf(
        "delivered=%lld  fabric_drops=%lld  congestion_drops=%lld  "
        "no_route=%lld\n",
        static_cast<long long>(t.delivered),
        static_cast<long long>(t.fabric_drops),
        static_cast<long long>(t.congestion_drops),
        static_cast<long long>(t.no_route_drops));
    if (!csv_path.empty()) {
      services::write_file(csv_path, services::cdf_csv(*fct, 100, "fct_us"));
      std::printf("wrote CDF to %s\n", csv_path.c_str());
    }
    if (!trace_path.empty()) {
      services::write_file(trace_path,
                           telemetry::chrome_trace_json(recorder));
      std::printf("wrote Chrome trace (%zu events) to %s\n", recorder.size(),
                  trace_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oosim: %s\n", e.what());
    return 1;
  }
  return 0;
}
