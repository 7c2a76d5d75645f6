// Every architecture preset must carry traffic end to end without
// pathological drops — the precondition for the Fig. 8 comparisons.
#include "arch/arch.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/kv.h"

namespace oo::arch {
namespace {

using namespace oo::literals;

Params small_params() {
  Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.slice = 100_us;
  p.collect_interval = 5_ms;
  p.reconfig_delay = 1_ms;  // shrunk MEMS for test horizons
  return p;
}

// Runs the KV workload and returns (ops completed, fct sampler median us).
std::pair<std::int64_t, double> run_kv(Instance& inst, SimTime horizon) {
  std::vector<HostId> clients;
  for (HostId h = 1; h < inst.net->num_hosts(); ++h) clients.push_back(h);
  workload::KvWorkload kv(*inst.net, 0, clients, 1_ms);
  kv.start();
  inst.run_for(horizon);
  kv.stop();
  return {kv.ops_completed(), kv.fct_us().median()};
}

TEST(Arch, ClosDeliversWithLowLatency) {
  auto inst = make_clos(small_params());
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  EXPECT_LT(median_us, 100.0);  // electrical: no circuit waits
  EXPECT_EQ(inst.net->totals().no_route_drops, 0);
}

TEST(Arch, CThroughMiceMatchClos) {
  auto inst = make_cthrough(small_params());
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  // Mice ride the (10 Gbps) electrical network: still sub-ms.
  EXPECT_LT(median_us, 1000.0);
}

TEST(Arch, JupiterDeliversOverMesh) {
  auto inst = make_jupiter(small_params());
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  EXPECT_LT(median_us, 500.0);
  EXPECT_EQ(inst.net->totals().no_route_drops, 0);
}

TEST(Arch, MordiaDeliversOverBvnSchedule) {
  auto inst = make_mordia(small_params());
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 400);
  (void)median_us;
}

TEST(Arch, RotorNetVlbDelivers) {
  auto inst = make_rotornet(small_params(), RotorRouting::Vlb);
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  // VLB waits for circuits: latency in the hundreds of microseconds.
  EXPECT_GT(median_us, 50.0);
}

TEST(Arch, RotorNetDirectDelivers) {
  auto inst = make_rotornet(small_params(), RotorRouting::Direct);
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  (void)median_us;
}

TEST(Arch, RotorNetUcmpFasterThanVlb) {
  auto vlb_inst = make_rotornet(small_params(), RotorRouting::Vlb);
  const auto [vops, vmed] = run_kv(vlb_inst, 150_ms);
  auto ucmp_inst = make_rotornet(small_params(), RotorRouting::Ucmp);
  const auto [uops, umed] = run_kv(ucmp_inst, 150_ms);
  EXPECT_GT(vops, 500);
  EXPECT_GT(uops, 500);
  // UCMP takes earliest-arrival paths; VLB waits at a random intermediate.
  EXPECT_LT(umed, vmed);
}

TEST(Arch, RotorNetHohoDelivers) {
  auto inst = make_rotornet(small_params(), RotorRouting::Hoho);
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  (void)median_us;
}

TEST(Arch, OperaLowLatencyViaExpander) {
  Params p = small_params();
  p.uplinks = 2;
  auto inst = make_opera(p);
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 500);
  // Opera forwards within the current slice: no circuit waits for mice.
  EXPECT_LT(median_us, 100.0);
}

TEST(Arch, OperaFasterMiceThanVlb) {
  Params p = small_params();
  p.uplinks = 2;
  auto opera_inst = make_opera(p);
  const auto [oops, omed] = run_kv(opera_inst, 100_ms);
  auto vlb_inst = make_rotornet(small_params(), RotorRouting::Vlb);
  const auto [vops, vmed] = run_kv(vlb_inst, 100_ms);
  EXPECT_LT(omed, vmed);  // Fig. 8a ordering
  (void)oops;
  (void)vops;
}

TEST(Arch, SemiObliviousAdaptsSchedule) {
  Params p = small_params();
  p.collect_interval = 20_ms;
  auto inst = make_semi_oblivious(p);
  const auto [ops, median_us] = run_kv(inst, 100_ms);
  EXPECT_GT(ops, 400);
  (void)median_us;
}

TEST(Arch, CThroughSteersElephants) {
  auto inst = make_cthrough(small_params());
  // Drive a large transfer so flow aging classifies it and the control
  // loop builds a circuit for it.
  workload::TransferPool pool(*inst.net);
  int done = 0;
  // Repeated 2 MB transfers 0 -> 5 across collection intervals.
  for (int i = 0; i < 6; ++i) {
    inst.net->sim().schedule_at(SimTime::millis(1 + 12 * i), [&]() {
      pool.launch(0, 5, 2 << 20, {}, [&](SimTime, std::int64_t) { ++done; });
    });
  }
  inst.run_for(100_ms);
  EXPECT_GE(done, 5);
  // After collection, the optical fabric must have carried traffic.
  EXPECT_GT(inst.steering->steered_packets(), 0);
  EXPECT_GT(inst.net->optical().delivered(), 0);
}

TEST(Arch, JupiterReconfiguresWithoutLoss) {
  Params p = small_params();
  p.collect_interval = 20_ms;
  auto inst = make_jupiter(p);
  const auto [ops, med] = run_kv(inst, 120_ms);
  (void)med;
  EXPECT_GT(ops, 600);
  // Make-before-break: routing updates precede topology swaps, so no-route
  // drops stay zero even across reconfigurations.
  EXPECT_EQ(inst.net->totals().no_route_drops, 0);
}

// ---------------------------------------------------------------------------
// Preset validation: a shape no preset can build fails when it is built,
// with std::invalid_argument, in release builds too (no assert).

TEST(ArchValidation, RotorPresetsRejectOddTorCounts) {
  Params p = small_params();
  p.tors = 7;
  EXPECT_THROW(make_rotornet(p, RotorRouting::Direct), std::invalid_argument);
  EXPECT_THROW(make_opera(p), std::invalid_argument);
  EXPECT_THROW(make_semi_oblivious(p), std::invalid_argument);
}

TEST(ArchValidation, RejectsFewerThanTwoTors) {
  for (const int tors : {-2, 0, 1}) {
    Params p = small_params();
    p.tors = tors;
    EXPECT_THROW(make_clos(p), std::invalid_argument) << tors;
    EXPECT_THROW(make_rotornet(p, RotorRouting::Direct),
                 std::invalid_argument)
        << tors;
    EXPECT_THROW(make_opera(p), std::invalid_argument) << tors;
  }
}

TEST(ArchValidation, RejectsHostlessTors) {
  Params p = small_params();
  p.hosts_per_tor = 0;
  EXPECT_THROW(make_clos(p), std::invalid_argument);
  EXPECT_THROW(make_rotornet(p, RotorRouting::Direct), std::invalid_argument);
}

TEST(ArchValidation, MessageNamesPresetAndParameter) {
  Params p = small_params();
  p.tors = 7;
  try {
    make_rotornet(p, RotorRouting::Direct);
    FAIL() << "7 ToRs built a rotor";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rotornet-direct"), std::string::npos) << what;
    EXPECT_NE(what.find("tors"), std::string::npos) << what;
  }
}

TEST(ArchValidation, ShaleRejectsTorCountsOffAnEvenGrid) {
  // Rejected: 9 = 3^2 (odd side), 8 at dimension 2 and 16 at dimension 3
  // (no integer side), and dimension 0. Built: 16 = 4^2 and 64 = 4^3.
  Params p = small_params();
  for (const auto& [tors, dimension] :
       {std::pair{9, 2}, std::pair{8, 2}, std::pair{16, 3}, std::pair{8, 0}}) {
    p.tors = tors;
    try {
      make_shale(p, dimension);
      FAIL() << tors << " ToRs at dimension " << dimension << " built shale";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shale"), std::string::npos) << what;
      EXPECT_NE(what.find("tors=" + std::to_string(tors)), std::string::npos)
          << what;
    }
  }
  p.tors = 16;
  EXPECT_EQ(make_shale(p, 2).name, "shale");
  p.tors = 64;
  EXPECT_EQ(make_shale(p, 3).name, "shale");
}

TEST(ArchValidation, RotorPresetsRejectMoreUplinksThanMatchings) {
  // 8 ToRs cycle through 7 matchings: an eighth uplink would repeat one.
  Params p = small_params();
  const std::vector<std::pair<std::string, std::function<Instance()>>>
      presets = {
          {"rotornet-vlb", [&] { return make_rotornet(p, RotorRouting::Vlb); }},
          {"rotornet-direct",
           [&] { return make_rotornet(p, RotorRouting::Direct); }},
          {"rotornet-ucmp",
           [&] { return make_rotornet(p, RotorRouting::Ucmp); }},
          {"rotornet-hoho",
           [&] { return make_rotornet(p, RotorRouting::Hoho); }},
          {"opera", [&] { return make_opera(p); }},
          {"opera-bulk", [&] { return make_opera(p, /*bulk=*/true); }},
      };
  for (const auto& [name, make] : presets) {
    for (const int uplinks : {8, 9}) {
      p.uplinks = uplinks;
      try {
        make();
        ADD_FAILURE() << name << " built with uplinks=" << uplinks;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("arch " + name + ":"), std::string::npos) << what;
        EXPECT_NE(what.find("uplinks"), std::string::npos) << what;
      }
    }
    p.uplinks = 7;
    EXPECT_EQ(make().name, name);
  }
}

TEST(ArchValidation, EveryPresetRejectsFewerThanOneUplink) {
  for (const int uplinks : {0, -1}) {
    Params p = small_params();
    p.uplinks = uplinks;
    const std::vector<std::pair<std::string, std::function<Instance()>>>
        presets = {
            {"clos", [&] { return make_clos(p); }},
            {"c-through", [&] { return make_cthrough(p); }},
            {"jupiter", [&] { return make_jupiter(p); }},
            {"mordia", [&] { return make_mordia(p); }},
            {"rotornet-direct",
             [&] { return make_rotornet(p, RotorRouting::Direct); }},
            {"opera", [&] { return make_opera(p); }},
            {"semi-oblivious", [&] { return make_semi_oblivious(p); }},
            {"shale", [&] { return make_shale(p); }},
        };
    for (const auto& [name, make] : presets) {
      try {
        make();
        ADD_FAILURE() << name << " built with uplinks=" << uplinks;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find("uplinks"), std::string::npos) << what;
      }
    }
  }
}

}  // namespace
}  // namespace oo::arch
