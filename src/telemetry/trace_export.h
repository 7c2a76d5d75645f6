// Exporters for the telemetry subsystem: Chrome trace_event JSON (load in
// Perfetto / chrome://tracing), CSV metric dumps, and a textual post-mortem
// of the last N flight-recorder events. Export is strictly offline — the
// hot path only ever appends PODs to the ring buffer.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace oo::telemetry {

// Chrome trace_event JSON: {"traceEvents":[...]}. Track layout:
//   pid <node id>  — one process per traced node (ToR); tid 0 carries the
//                    slice/guard track, tid <port>+1 one track per port.
//   pid 9000       — optical fabric (circuit up/down, per-port tids)
//   pid 9001       — control plane (deploys, retries)
//   pid 9002       — fault injection
//   pid 9003       — active probes (send/echo/timeout), one tid per prober
// Instant events use ph "i" (scope "t"); guard windows are ph "X" complete
// events with their duration. ts is microseconds (Chrome's unit).
std::string chrome_trace_json(const FlightRecorder& rec);

// Stitched sharded export: the control-context ring plus one ring per
// engine worker, merged into a single trace. Node tracks keep their pids —
// each ToR is owned by exactly one worker lane, so rings never split a
// node's timeline — and node process names gain the owning shard
// ("node_3 (shard 1)", ownership = lane % workers) so per-shard activity
// reads directly off the track list. Null shard entries are skipped.
std::string chrome_trace_json(const FlightRecorder& control,
                              const std::vector<const FlightRecorder*>& shards);

// Well-known synthetic pids used by chrome_trace_json.
inline constexpr int kFabricPid = 9000;
inline constexpr int kControlPid = 9001;
inline constexpr int kFaultPid = 9002;
inline constexpr int kProbePid = 9003;

// Human-readable dump of the newest `last_n` retained events, oldest first:
// one "ts kind node port a b [reason]" line each. The default asks for more
// than the ring holds, i.e. everything retained.
std::string post_mortem(const FlightRecorder& rec,
                        std::size_t last_n = static_cast<std::size_t>(-1));

}  // namespace oo::telemetry
