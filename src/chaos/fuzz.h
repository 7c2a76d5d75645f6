// Seeded chaos fuzzer: structurally valid random FaultPlans drawn from a
// derive_rng stream. The same (seed, spec) pair always yields the same
// event list, on any machine and at any campaign --jobs — a fuzz campaign
// is just a seed grid, and any failure is replayed from its seed alone.
//
// "Structurally valid" means every generated event passes FaultPlan's JSON
// vocabulary and points at nodes/ports/replicas that exist in the target
// fabric: the fuzzer explores the space of *legal* fault scripts, and the
// invariant monitor decides whether the simulator survived them. All times
// are quantized to whole microseconds so plans round-trip exactly through
// the JSON reproducer format (see fault_events_to_json).
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "services/fault_plan.h"

namespace oo::chaos {

struct FuzzSpec {
  // Events per plan (before intensity scaling).
  int events = 12;
  // Severity knob in (0, ~4]: scales event count, fault durations, and
  // loss/duplication probabilities. 1.0 = the defaults below.
  double intensity = 1.0;
  // Events land in [0, horizon); keep it inside the run so every fault has
  // time to act (and be recovered from) before the drain check.
  SimTime horizon = SimTime::millis(2);
  // Fabric shape the plan must stay inside.
  int num_tors = 4;
  int ports_per_tor = 1;
  // Quorum replica count; < 2 removes the quorum fault kinds
  // (leader_kill / replica_partition / log_divergence) from the pool.
  int replicas = 1;
};

// Generate one plan. Deterministic in (seed, spec); different seeds give
// independent plans (the stream is split via derive_rng(seed, 0, "chaos")).
std::vector<services::FaultEvent> fuzz_plan(std::uint64_t seed,
                                            const FuzzSpec& spec);

}  // namespace oo::chaos
