#include "chaos/fuzz.h"

#include <algorithm>

#include "common/rng.h"

namespace oo::chaos {

namespace {

using services::FaultEvent;
using services::FaultKind;

// Whole-microsecond times only: the JSON reproducer stores microsecond
// doubles, and integral microseconds are the values that survive the
// dump/parse round-trip bit-exactly.
SimTime us(std::int64_t v) { return SimTime::nanos(v * 1000); }

std::int64_t rand_us(Rng& rng, std::int64_t lo_us, std::int64_t hi_us) {
  return rng.uniform_i64(lo_us, hi_us);
}

// Per-kind sampling weight. Steady-state faults (flaps, BER, message loss)
// are the bread and butter; one-shot structural faults (crashes, kills)
// are rarer but present in every pool they are legal for.
int weight(FaultKind k, const FuzzSpec& spec) {
  const bool quorum = spec.replicas >= 2;
  switch (k) {
    case FaultKind::PortFail:
      return 10;
    case FaultKind::PortRepair:
      return 6;
    case FaultKind::LinkFlap:
      return 8;
    case FaultKind::Ber:
      return 6;
    case FaultKind::ReconfigStall:
      return 4;
    case FaultKind::ControlDelay:
      return 5;
    case FaultKind::ControlFail:
      return 4;
    case FaultKind::ClockDriftRamp:
      return 6;
    case FaultKind::ClockStep:
      return 5;
    case FaultKind::SyncBeaconLoss:
      return 4;
    case FaultKind::SyncOutage:
      return 2;
    case FaultKind::SbMsgLoss:
      return 5;
    case FaultKind::SbMsgDelay:
      return 4;
    case FaultKind::SbMsgDup:
      return 3;
    case FaultKind::TorInstallFail:
      return 3;
    case FaultKind::ControllerCrash:
      return 3;
    case FaultKind::LeaderKill:
      return quorum ? 4 : 0;
    case FaultKind::ReplicaPartition:
      return quorum ? 4 : 0;
    case FaultKind::LogDivergence:
      return quorum ? 3 : 0;
    case FaultKind::BerRamp:
      return 5;
    case FaultKind::GrayPortPair:
      return 5;
    case FaultKind::SilentInstallFail:
      return 3;
    case FaultKind::TelemetrySkew:
      return 3;
  }
  return 0;
}

}  // namespace

std::vector<FaultEvent> fuzz_plan(std::uint64_t seed, const FuzzSpec& spec) {
  Rng rng = derive_rng(seed, 0, "chaos");
  const double intensity = std::clamp(spec.intensity, 0.1, 8.0);
  const int count = std::max(
      1, static_cast<int>(static_cast<double>(spec.events) * intensity));
  const std::int64_t horizon_us = std::max<std::int64_t>(
      1, spec.horizon.ns() / 1000);
  // Fault windows: long enough to matter, short enough that recovery also
  // gets exercised inside the horizon.
  const std::int64_t dur_lo = std::max<std::int64_t>(1, horizon_us / 50);
  const std::int64_t dur_hi = std::max(
      dur_lo + 1, static_cast<std::int64_t>(
                      static_cast<double>(horizon_us) * 0.25 * intensity));

  // Cumulative weight table over the kinds legal for this spec.
  std::vector<std::pair<FaultKind, int>> pool;
  int total_weight = 0;
  for (int k = 0; k < services::kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    const int w = weight(kind, spec);
    if (w > 0) {
      total_weight += w;
      pool.emplace_back(kind, total_weight);
    }
  }

  std::vector<FaultEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int pick =
        static_cast<int>(rng.uniform(static_cast<std::uint32_t>(
            total_weight)));
    FaultKind kind = pool.back().first;
    for (const auto& [k, cum] : pool) {
      if (pick < cum) {
        kind = k;
        break;
      }
    }

    FaultEvent ev;
    ev.kind = kind;
    ev.at = us(rand_us(rng, 0, horizon_us - 1));
    const NodeId node = static_cast<NodeId>(
        rng.uniform(static_cast<std::uint32_t>(spec.num_tors)));
    const PortId port = static_cast<PortId>(
        rng.uniform(static_cast<std::uint32_t>(spec.ports_per_tor)));
    const int replica = static_cast<int>(
        rng.uniform(static_cast<std::uint32_t>(std::max(1, spec.replicas))));
    const SimTime dur = us(rand_us(rng, dur_lo, dur_hi));
    // Probability-style knobs quantized to 1/64 so they, too, round-trip
    // exactly (any dyadic fraction does; this one keeps plans readable).
    const double prob = std::min(
        1.0, static_cast<double>(rand_us(rng, 1, 48)) / 64.0 * intensity);

    switch (kind) {
      case FaultKind::PortFail:
      case FaultKind::PortRepair:
        ev.node = node;
        ev.port = port;
        break;
      case FaultKind::LinkFlap:
        ev.node = node;
        ev.port = port;
        ev.duration = us(rand_us(rng, dur_lo, std::max(dur_lo + 1,
                                                       dur_hi / 2)));
        ev.period = ev.duration + us(rand_us(rng, dur_lo, dur_hi));
        ev.cycles = static_cast<int>(rng.uniform(3)) + 1;
        break;
      case FaultKind::Ber:
        ev.node = node;
        ev.port = port;
        // 1e-7-ish: high enough to corrupt frames inside the horizon.
        ev.ber = static_cast<double>(rand_us(rng, 1, 64)) * 1e-8 * intensity;
        break;
      case FaultKind::ReconfigStall:
        ev.extra = us(rand_us(rng, 1, std::max<std::int64_t>(2, dur_lo * 4)));
        break;
      case FaultKind::ControlDelay:
        ev.extra = us(rand_us(rng, 1, dur_lo * 2));
        ev.duration = dur;
        break;
      case FaultKind::ControlFail:
      case FaultKind::SyncOutage:
      case FaultKind::ControllerCrash:
        ev.duration = dur;
        break;
      case FaultKind::ClockDriftRamp:
        ev.node = node;
        ev.ppm = static_cast<double>(rand_us(rng, 20, 400)) * intensity *
                 (rng.uniform(2) == 0 ? 1.0 : -1.0);
        ev.duration = dur;
        break;
      case FaultKind::ClockStep:
        ev.node = node;
        ev.extra = us(rand_us(rng, 1, std::max<std::int64_t>(2, dur_lo)));
        break;
      case FaultKind::SyncBeaconLoss:
      case FaultKind::TorInstallFail:
        ev.node = node;
        ev.duration = dur;
        break;
      case FaultKind::SbMsgLoss:
      case FaultKind::SbMsgDup:
        // Occasionally fabric-wide (node unset) — the harsher variant.
        if (rng.uniform(4) != 0) ev.node = node;
        ev.ber = prob;
        ev.duration = dur;
        break;
      case FaultKind::SbMsgDelay:
        if (rng.uniform(4) != 0) ev.node = node;
        ev.extra = us(rand_us(rng, 1, dur_lo * 2));
        ev.duration = dur;
        break;
      case FaultKind::LeaderKill:
        // Usually revive (exercises failover both ways); sometimes sticky.
        if (rng.uniform(4) != 0) ev.duration = dur;
        break;
      case FaultKind::ReplicaPartition:
        ev.node = static_cast<NodeId>(replica);
        ev.duration = dur;
        break;
      case FaultKind::LogDivergence:
        ev.node = static_cast<NodeId>(replica);
        break;
      case FaultKind::BerRamp:
        ev.node = node;
        ev.port = port;
        // Monotonic aging curve: start at a benign BER, climb to a target
        // high enough to visibly eat frames inside the ramp window.
        ev.jitter = static_cast<double>(rand_us(rng, 1, 8)) * 1e-9;
        ev.ber = static_cast<double>(rand_us(rng, 8, 64)) * 1e-7 * intensity;
        ev.duration = dur;
        ev.cycles = static_cast<int>(rng.uniform(8)) + 2;
        break;
      case FaultKind::GrayPortPair:
        ev.node = node;
        ev.port = port;
        // Usually pair-scoped (the dirty-mirror signature); occasionally
        // peer-wildcarded, which reads like early port aging instead.
        if (rng.uniform(4) != 0) {
          ev.peer = static_cast<NodeId>(
              rng.uniform(static_cast<std::uint32_t>(spec.num_tors)));
        }
        ev.ber = prob;
        ev.duration = dur;
        break;
      case FaultKind::SilentInstallFail:
        ev.node = node;
        // Usually heals (the agent starts applying again); sometimes
        // sticky for the rest of the run.
        if (rng.uniform(4) != 0) ev.duration = dur;
        break;
      case FaultKind::TelemetrySkew:
        ev.node = node;
        ev.ppm = static_cast<double>(rand_us(rng, 50, 500)) * 1000.0 *
                 (rng.uniform(2) == 0 ? 1.0 : -1.0);
        ev.duration = dur;
        break;
    }
    out.push_back(ev);
  }
  return out;
}

}  // namespace oo::chaos
