// OpenOptics user API (§4.2, Tab. 1). A user creates a Net from a static
// JSON configuration (hardware setup: node kind/count, optical uplinks,
// slice duration, OCS type), then drives the topology, routing, and
// monitoring APIs. The C++ spellings of the paper's calls:
//
//   auto net = oo::api::Net::from_json(config_text);
//   auto circuits = oo::topo::round_robin_1d(n, uplinks);
//   net.deploy_topo(circuits, period);
//   auto paths = oo::routing::vlb(net.schedule());
//   net.deploy_routing(paths, Lookup::PerHop, Multipath::PerPacket);
//   net.run_for(SimTime::millis(10));
//   auto tm = net.collect();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "common/json.h"
#include "core/controller.h"
#include "core/network.h"
#include "core/quorum.h"
#include "core/path.h"
#include "optics/fabric.h"
#include "optics/schedule.h"
#include "routing/time_expanded.h"
#include "services/health_scanner.h"
#include "telemetry/flight_recorder.h"
#include "topo/traffic_matrix.h"
#include "traffic/engine.h"

namespace oo::api {

using Lookup = core::LookupMode;
using Multipath = core::MultipathMode;

// Static configuration (§4.1): the JSON file of hardware facts.
struct Config {
  int node_num = 8;
  int hosts_per_node = 1;
  int uplink = 1;
  double bw_gbps = 100.0;
  double slice_us = 100.0;
  int period = 0;           // 0: decided at deploy_topo time
  std::string ocs = "emulated";  // emulated|mems|rotor|liquid-crystal|awgr
  bool calendar = true;
  double electrical_gbps = 0.0;
  std::uint64_t seed = 42;
  // Period of the control plane's OpSync resync beacons (0 disables them;
  // drifting clocks then run open-loop until a watchdog probe intervenes).
  double resync_interval_us = 100.0;

  // Infra-service knobs (§5.2).
  bool congestion_detection = true;
  std::string congestion_response = "drop";  // drop|defer|trim
  bool pushback = false;
  bool offload = false;
  std::string host_stack = "libvma";  // libvma|kernel

  // Southbound control channel (controller <-> ToR install agents). The
  // defaults model an ideal channel: deploys commit inline, exactly the
  // pre-transactional semantics. Non-zero values run every deploy as an
  // asynchronous two-phase transaction. sb_fencing=false selects the
  // legacy scatter baseline that exposes mixed-epoch forwarding.
  double sb_latency_us = 0.0;
  double sb_loss_prob = 0.0;
  double sb_dup_prob = 0.0;
  bool sb_fencing = true;

  // Controller quorum (core/quorum.h). replicas=1 keeps the single
  // controller, bit-for-bit; >1 runs leader election and majority-gated
  // commits over the same southbound channel model.
  int controller_replicas = 1;
  double election_timeout_us = 500.0;
  double heartbeat_us = 100.0;

  // Sharded parallel engine workers (src/parallel/). 0 keeps the legacy
  // single-queue engine bit-for-bit; >= 1 runs the windowed lane engine,
  // whose results are byte-identical at any worker count.
  int shards = 0;

  static Config from_json(const std::string& text);
  // Reads the JSON config from disk (the paper's static configuration
  // file); throws on I/O or parse errors.
  static Config from_file(const std::string& path);
  core::NetworkConfig to_network_config() const;
  optics::OcsProfile profile() const;
};

class Net {
 public:
  // The network materializes on the first deploy_topo() call, which fixes
  // the schedule period (the static config fixes everything else).
  explicit Net(const Config& cfg);
  static Net from_json(const std::string& text) { return Net(Config::from_json(text)); }

  bool ready() const { return net_ != nullptr; }
  core::Network& network() { return *net_; }
  core::Controller& controller() { return *ctl_; }
  // Controller quorum — nullptr unless controller_replicas > 1.
  core::ControllerQuorum* quorum() { return quorum_.get(); }
  const optics::Schedule& schedule() const { return net_->schedule(); }
  sim::Simulator& sim() { return net_->sim(); }

  // --- Topology APIs ---
  // connect(): the primitive circuit constructor.
  static optics::Circuit connect(NodeId n1, PortId p1, NodeId n2, PortId p2,
                                 SliceId ts = kAnySlice) {
    return optics::Circuit{n1, p1, n2, p2, ts};
  }
  bool deploy_topo(const std::vector<optics::Circuit>& circuits,
                   SliceId period = 1,
                   SimTime reconfig_delay = SimTime::zero());

  // --- Routing APIs ---
  bool deploy_routing(const std::vector<core::Path>& paths,
                      Lookup lookup = Lookup::PerHop,
                      Multipath multipath = Multipath::None,
                      int priority = 0);
  bool add(const core::TftEntry& entry, NodeId node);
  std::vector<NodeId> neighbors(NodeId node, SliceId ts) const;
  std::optional<core::Path> earliest_path(NodeId src, NodeId dst, SliceId ts,
                                          int max_hop = 0) const;

  // --- Monitoring APIs ---
  topo::TrafficMatrix collect();  // drains per-destination counters
  std::int64_t buffer_usage(NodeId node, PortId port = kInvalidPort) const;
  // Bytes sent on a node's uplinks since the last bw_usage call.
  std::int64_t bw_usage(NodeId node);

  // --- Telemetry ---
  // Attach a flight recorder holding the last `capacity` trace events.
  // Safe to call before the network materializes; recording starts as soon
  // as it does.
  void enable_tracing(std::size_t capacity = std::size_t{1} << 16);
  telemetry::FlightRecorder* recorder() { return recorder_.get(); }
  // Write the recorded events as Chrome trace_event JSON (load in
  // chrome://tracing or Perfetto). Throws if tracing was never enabled or
  // the file cannot be opened.
  void write_chrome_trace(const std::string& path) const;
  // Dump every registered metric (counters, gauges, histograms) as CSV.
  void write_metrics_csv(const std::string& path);

  // --- Traffic APIs ---
  // Attaches a streaming production-traffic engine (src/traffic/) to the
  // materialized network and starts it. The returned engine is owned by
  // the Net; call again to replace it — the old engine stops, cancels its
  // queued events, and completions of transfers it leaves in flight are
  // dropped (not recorded anywhere), so replacement is safe mid-run.
  // Throws std::runtime_error before deploy_topo materializes the network
  // and std::invalid_argument on a malformed spec.
  traffic::TrafficEngine& start_traffic(traffic::TrafficSpec spec);
  traffic::TrafficEngine& start_traffic_json(const std::string& spec_text) {
    return start_traffic(traffic::spec_from_json_text(spec_text));
  }
  traffic::TrafficEngine* traffic() { return traffic_.get(); }

  // --- Invariants (src/chaos) ---
  // Attach the always-on invariant monitor to the materialized network,
  // controller, and quorum (when one exists) and arm its periodic poll.
  // Throws before deploy_topo materializes the network. Violations surface
  // through the returned monitor, check_invariants(), and the
  // "chaos.violations" metric cell.
  chaos::InvariantMonitor& enable_invariants(
      SimTime poll = SimTime::micros(100));
  chaos::InvariantMonitor* invariants() { return monitor_.get(); }
  // Run every polled check plus the packet-conservation ledger and return
  // the violation report ("" = all invariants hold). The conservation
  // equality is exact only at quiescence — call after traffic has stopped
  // and drained, or expect in-flight packets to show as a transient leak.
  // Throws if enable_invariants was never called.
  std::string check_invariants();

  // --- Gray-failure health scanning (src/services/health_scanner.h) ---
  // Attach the evidence-based health scanner to the materialized network:
  // wires the controller (claim-vs-behavior checks), registers its ladder
  // with the invariant monitor when one is enabled, and starts boundary-
  // aligned conservation audits. Throws before deploy_topo materializes
  // the network. Idempotent.
  services::HealthScanner& enable_health_scanner();
  services::HealthScanner* health_scanner() { return scanner_.get(); }

  // --- Execution ---
  int shards() const { return cfg_.shards; }
  void run_for(SimTime t) { net_->sim().run_until(net_->sim().now() + t); }
  void start() { net_->start(); }

  const std::string& last_error() const { return ctl_->last_error(); }
  // Highest fabric-wide committed deploy epoch (0 before materialization).
  std::uint64_t committed_epoch() const {
    return ctl_ ? ctl_->committed_epoch() : 0;
  }

 private:
  optics::OcsProfile profile_cached() const;

  Config cfg_;
  std::unique_ptr<core::Network> net_;
  std::unique_ptr<core::Controller> ctl_;
  std::unique_ptr<core::ControllerQuorum> quorum_;  // replicas > 1 only
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<traffic::TrafficEngine> traffic_;
  std::unique_ptr<chaos::InvariantMonitor> monitor_;
  std::unique_ptr<services::HealthScanner> scanner_;
  std::vector<std::int64_t> bw_baseline_;
};

}  // namespace oo::api
