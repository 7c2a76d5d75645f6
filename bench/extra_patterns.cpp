// Extra (beyond the paper's figures): classic pattern stress — permutation,
// incast, and all-to-all rounds across representative architectures. A
// downstream-user benchmark for comparing designs on the geometries ML and
// storage workloads generate.
//
// Gates (exit 2 on failure): Clos is fastest on every pattern, and
// rotornet-direct's all-to-all time relative to Clos's is below its
// permutation time relative to Clos's.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "workload/patterns.h"

using namespace oo;
using namespace oo::literals;

namespace {

SimTime run_pattern(
    arch::Instance& inst,
    std::vector<std::tuple<HostId, HostId, std::int64_t>> flows) {
  SimTime round = SimTime::zero();
  transport::FlowTransferConfig cfg;
  cfg.window = 256;
  cfg.rto = SimTime::millis(8);
  workload::PatternRun run(*inst.net, std::move(flows), cfg,
                           [&](SimTime t) { round = t; });
  run.start();
  inst.run_for(2_s);
  return round;
}

// A round time in us as SimTime::str() prints it; a timeout is infinite.
double printed_us(SimTime t) {
  if (t == SimTime::zero()) return std::numeric_limits<double>::infinity();
  const std::string s = t.str();
  char* unit = nullptr;
  const double v = std::strtod(s.c_str(), &unit);
  const std::string u = unit;
  return u == "s" ? v * 1e6 : u == "ms" ? v * 1e3 : u == "us" ? v : v / 1e3;
}

struct Rounds {
  double perm_us;
  double incast_us;
  double a2a_us;
};

Rounds bench_arch(const char* label,
                  const std::function<arch::Instance()>& make) {
  Rng rng(11);
  auto perm = [&]() {
    auto inst = make();
    return run_pattern(inst,
                       workload::permutation_flows(8, 1, 2 << 20, rng));
  }();
  auto incast = [&]() {
    auto inst = make();
    return run_pattern(inst, workload::incast_flows(8, 0, 2 << 20));
  }();
  auto a2a = [&]() {
    auto inst = make();
    return run_pattern(inst, workload::all_to_all_flows(8, 1, 256 << 10));
  }();
  auto fmt = [](SimTime t) {
    return t == SimTime::zero() ? std::string("timeout") : t.str();
  };
  std::printf("  %-18s permutation=%-10s incast=%-10s all-to-all=%-10s\n",
              label, fmt(perm).c_str(), fmt(incast).c_str(),
              fmt(a2a).c_str());
  return Rounds{printed_us(perm), printed_us(incast), printed_us(a2a)};
}

}  // namespace

int main() {
  bench::banner(
      "Extra: pattern stress (8 hosts, 2 MB permutation/incast, 256 KB "
      "all-to-all)",
      "Clos fastest everywhere; rotor designs pay circuit duty on "
      "permutation, serialize incast at the sink's circuit-time, and "
      "shine on all-to-all (rotors are built for uniform load)");

  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.slice = 100_us;
  p.uplinks = 2;

  const Rounds clos = bench_arch("clos", [&]() { return arch::make_clos(p); });
  const Rounds direct = bench_arch("rotornet-direct", [&]() {
    return arch::make_rotornet(p, arch::RotorRouting::Direct);
  });
  const Rounds ucmp = bench_arch("rotornet-ucmp", [&]() {
    return arch::make_rotornet(p, arch::RotorRouting::Ucmp);
  });
  const Rounds opera =
      bench_arch("opera-bulk", [&]() { return arch::make_opera(p, true); });

  bench::Gate gate;
  const std::pair<const char*, const Rounds*> rivals[] = {
      {"rotornet-direct", &direct},
      {"rotornet-ucmp", &ucmp},
      {"opera-bulk", &opera}};
  for (const auto& [name, r] : rivals) {
    gate.check(clos.perm_us < r->perm_us && clos.incast_us < r->incast_us &&
                   clos.a2a_us < r->a2a_us,
               "Clos is not faster than %s on every pattern", name);
  }
  gate.check(direct.a2a_us / clos.a2a_us < direct.perm_us / clos.perm_us,
             "rotornet-direct's all-to-all gap to Clos is not below its "
             "permutation gap");
  return gate.finish("pattern stress bench passed");
}
