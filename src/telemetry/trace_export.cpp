#include "telemetry/trace_export.h"

#include <cstdio>
#include <set>
#include <utility>

namespace oo::telemetry {

namespace {

void append_meta(std::string& out, int pid, const std::string& name,
                 bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                "\"args\":{\"name\":\"%s\"}}",
                pid, name.c_str());
  out += buf;
}

struct Track {
  int pid;
  int tid;
};

// Where an event is drawn. Packet-level and slice-level events live on the
// emitting node's process; fabric/control/fault events on synthetic pids.
Track track_for(const TraceEvent& ev) {
  switch (ev.kind) {
    case EventKind::PacketEnqueue:
    case EventKind::PacketDequeue:
    case EventKind::PacketDrop:
    case EventKind::SliceMiss:
      return {ev.node, ev.port >= 0 ? ev.port + 1 : 0};
    case EventKind::SliceRotation:
    case EventKind::GuardOpen:
    case EventKind::GuardClose:
      return {ev.node, 0};
    case EventKind::CircuitUp:
    case EventKind::CircuitDown:
      return {kFabricPid, ev.port >= 0 ? ev.port + 1 : 0};
    case EventKind::ControlDeploy:
    case EventKind::ControlRetry:
    case EventKind::TxnPrepare:
    case EventKind::TxnCommit:
    case EventKind::TxnAbort:
    case EventKind::CtlCrash:
    case EventKind::CtlResync:
    // Quorum lifecycle lives on the control track; the replica index is in
    // the node field and survives in the event args.
    case EventKind::ElectionStart:
    case EventKind::LeaderElected:
    case EventKind::QuorumReplicate:
    case EventKind::QuorumStepDown:
    case EventKind::QuorumFailover:
      return {kControlPid, 0};
    case EventKind::TxnAck:
    case EventKind::TxnRollback:
    case EventKind::TxnFence:
    case EventKind::TermFence:
      // Per-ToR agent events: drawn on the node when one is named, on the
      // control-plane track otherwise.
      return ev.node >= 0 ? Track{ev.node, 0} : Track{kControlPid, 0};
    case EventKind::FaultInject:
    case EventKind::FaultRepair:
      return {kFaultPid, 0};
    case EventKind::WrongSlice:
      return {ev.node, ev.port >= 0 ? ev.port + 1 : 0};
    case EventKind::BeaconLost:
    case EventKind::ClockDesync:
    case EventKind::GuardWiden:
    case EventKind::Quarantine:
    case EventKind::Readmit:
      return {ev.node, 0};
    // Traffic-engine flow lifecycle: drawn on the source ToR's track (the
    // fidelity marker rides in the port field, kept out of the tid so both
    // fidelities interleave on one lane).
    case EventKind::FlowStart:
    case EventKind::FlowComplete:
      return {ev.node, 0};
    case EventKind::FluidRecompute:
      return {kFabricPid, 0};
    case EventKind::InvariantViolation:
      // Violations draw on the fault track: they are almost always the
      // direct consequence of a nearby injection.
      return {kFaultPid, 0};
    // Active probes get their own process so probe chatter never clutters a
    // node's packet lanes; one tid per prober ToR.
    case EventKind::ProbeSend:
    case EventKind::ProbeEcho:
    case EventKind::ProbeTimeout:
      return {kProbePid, ev.node >= 0 ? ev.node + 1 : 0};
    // Health-ladder transitions draw on the affected node's slice track,
    // right next to the symptoms that caused them.
    case EventKind::HealthSuspect:
    case EventKind::HealthDegrade:
    case EventKind::HealthQuarantine:
    case EventKind::HealthReadmit:
      return {ev.node, 0};
  }
  return {kFabricPid, 0};
}

void append_events(std::string& out, const FlightRecorder& rec, bool& first) {
  char buf[320];
  rec.for_each([&](const TraceEvent& ev) {
    const Track t = track_for(ev);
    if (t.pid < 0) return;  // node-scoped event with no node: skip
    if (!first) out += ",\n";
    first = false;
    const double ts_us = static_cast<double>(ev.ts.ns()) / 1e3;
    if (ev.kind == EventKind::GuardOpen) {
      // Guard window as a complete event spanning its duration.
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"guard\",\"cat\":\"slice\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"slice\":%lld}}",
                    ts_us, static_cast<double>(ev.b) / 1e3, t.pid, t.tid,
                    static_cast<long long>(ev.a));
    } else if (ev.kind == EventKind::PacketDrop) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"drop\",\"cat\":\"packet\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"reason\":\"%s\",\"packet\":%lld,"
                    "\"bytes\":%lld}}",
                    ts_us, t.pid, t.tid, drop_reason_name(ev.reason),
                    static_cast<long long>(ev.a),
                    static_cast<long long>(ev.b));
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"i\","
                    "\"s\":\"t\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,"
                    "\"args\":{\"a\":%lld,\"b\":%lld}}",
                    event_kind_name(ev.kind), ts_us, t.pid, t.tid,
                    static_cast<long long>(ev.a),
                    static_cast<long long>(ev.b));
    }
    out += buf;
  });
}

// Shared body for the single-ring and stitched exports: metadata pass over
// every ring, then events ring by ring (Perfetto orders by ts, so rings
// need no global sort).
std::string trace_json_impl(const FlightRecorder& control,
                            const std::vector<const FlightRecorder*>& shards) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;

  // Process-name metadata for every pid that appears in any window.
  std::set<int> pids;
  auto collect = [&pids](const TraceEvent& ev) {
    const Track t = track_for(ev);
    if (t.pid >= 0) pids.insert(t.pid);
  };
  control.for_each(collect);
  for (const auto* s : shards) {
    if (s) s->for_each(collect);
  }
  const int workers = static_cast<int>(shards.size());
  for (int pid : pids) {
    char name[64];
    if (pid == kFabricPid) {
      std::snprintf(name, sizeof name, "optical_fabric");
    } else if (pid == kControlPid) {
      std::snprintf(name, sizeof name, "control_plane");
    } else if (pid == kFaultPid) {
      std::snprintf(name, sizeof name, "faults");
    } else if (pid == kProbePid) {
      std::snprintf(name, sizeof name, "probes");
    } else if (workers > 0) {
      // Engine lane -> worker mapping: worker w runs lanes {w, w+N, ...}.
      std::snprintf(name, sizeof name, "node_%d (shard %d)", pid,
                    pid % workers);
    } else {
      std::snprintf(name, sizeof name, "node_%d", pid);
    }
    append_meta(out, pid, name, first);
  }

  append_events(out, control, first);
  for (const auto* s : shards) {
    if (s) append_events(out, *s, first);
  }

  out += "\n]}\n";
  return out;
}

}  // namespace

std::string chrome_trace_json(const FlightRecorder& rec) {
  return trace_json_impl(rec, {});
}

std::string chrome_trace_json(
    const FlightRecorder& control,
    const std::vector<const FlightRecorder*>& shards) {
  return trace_json_impl(control, shards);
}


std::string post_mortem(const FlightRecorder& rec, std::size_t last_n) {
  const std::size_t n = rec.size() < last_n ? rec.size() : last_n;
  const std::size_t skip = rec.size() - n;
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "flight recorder: last %zu of %lld events\n", n,
                static_cast<long long>(rec.total_recorded()));
  out += buf;
  std::size_t i = 0;
  rec.for_each([&](const TraceEvent& ev) {
    if (i++ < skip) return;
    std::snprintf(buf, sizeof buf, "%12lld ns  %-14s node=%d port=%d a=%lld "
                                   "b=%lld",
                  static_cast<long long>(ev.ts.ns()),
                  event_kind_name(ev.kind), ev.node, ev.port,
                  static_cast<long long>(ev.a),
                  static_cast<long long>(ev.b));
    out += buf;
    if (ev.reason != DropReason::None) {
      out += "  reason=";
      out += drop_reason_name(ev.reason);
    }
    out += '\n';
  });
  return out;
}

}  // namespace oo::telemetry
