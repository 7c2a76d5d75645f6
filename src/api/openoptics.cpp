#include "api/openoptics.h"

#include <cassert>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "parallel/sharded.h"
#include "telemetry/trace_export.h"

namespace oo::api {

Config Config::from_json(const std::string& text) {
  const json::Value v = json::parse(text);
  Config c;
  c.node_num = static_cast<int>(v.get_int("node_num", c.node_num));
  c.hosts_per_node =
      static_cast<int>(v.get_int("hosts_per_node", c.hosts_per_node));
  c.uplink = static_cast<int>(v.get_int("uplink", c.uplink));
  c.bw_gbps = v.get_double("bw_gbps", c.bw_gbps);
  c.slice_us = v.get_double("slice_us", c.slice_us);
  c.period = static_cast<int>(v.get_int("period", c.period));
  c.ocs = v.get_string("ocs", c.ocs);
  c.calendar = v.get_bool("calendar", c.calendar);
  c.electrical_gbps = v.get_double("electrical_gbps", c.electrical_gbps);
  c.seed = static_cast<std::uint64_t>(v.get_int("seed", 42));
  c.resync_interval_us =
      v.get_double("resync_interval_us", c.resync_interval_us);
  c.congestion_detection =
      v.get_bool("congestion_detection", c.congestion_detection);
  c.congestion_response =
      v.get_string("congestion_response", c.congestion_response);
  c.pushback = v.get_bool("pushback", c.pushback);
  c.offload = v.get_bool("offload", c.offload);
  c.host_stack = v.get_string("host_stack", c.host_stack);
  c.sb_latency_us = v.get_double("sb_latency_us", c.sb_latency_us);
  c.sb_loss_prob = v.get_double("sb_loss_prob", c.sb_loss_prob);
  c.sb_dup_prob = v.get_double("sb_dup_prob", c.sb_dup_prob);
  c.sb_fencing = v.get_bool("sb_fencing", c.sb_fencing);
  c.controller_replicas = static_cast<int>(
      v.get_int("controller_replicas", c.controller_replicas));
  c.election_timeout_us =
      v.get_double("election_timeout_us", c.election_timeout_us);
  c.heartbeat_us = v.get_double("heartbeat_us", c.heartbeat_us);
  c.shards = static_cast<int>(v.get_int("shards", c.shards));
  return c;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_json(ss.str());
}

core::NetworkConfig Config::to_network_config() const {
  core::NetworkConfig n;
  n.num_tors = node_num;
  n.hosts_per_tor = hosts_per_node;
  n.optical_bw = bw_gbps * 1e9;
  n.host_bw = bw_gbps * 1e9;
  n.electrical_bw = electrical_gbps * 1e9;
  n.calendar_mode = calendar;
  n.seed = seed;
  n.resync_interval =
      SimTime::nanos(static_cast<std::int64_t>(resync_interval_us * 1e3));
  n.congestion_detection = congestion_detection;
  if (congestion_response == "defer") {
    n.congestion_response = core::CongestionResponse::Defer;
  } else if (congestion_response == "trim") {
    n.congestion_response = core::CongestionResponse::Trim;
  } else if (congestion_response == "drop") {
    n.congestion_response = core::CongestionResponse::Drop;
  } else {
    throw std::runtime_error("unknown congestion_response: " +
                             congestion_response);
  }
  n.pushback = pushback;
  n.offload = offload;
  if (host_stack == "kernel") {
    n.host_stack = core::HostStack::Kernel;
  } else if (host_stack == "libvma") {
    n.host_stack = core::HostStack::Libvma;
  } else {
    throw std::runtime_error("unknown host_stack: " + host_stack);
  }
  n.shards = shards;
  return n;
}

optics::OcsProfile Config::profile() const {
  if (ocs == "mems") return optics::ocs_mems();
  if (ocs == "rotor") return optics::ocs_rotor();
  if (ocs == "liquid-crystal") return optics::ocs_liquid_crystal();
  if (ocs == "awgr") return optics::ocs_awgr();
  if (ocs == "emulated") return optics::ocs_emulated();
  throw std::runtime_error("unknown ocs profile: " + ocs);
}

Net::Net(const Config& cfg) : cfg_(cfg) {}

bool Net::deploy_topo(const std::vector<optics::Circuit>& circuits,
                      SliceId period, SimTime reconfig_delay) {
  if (net_ == nullptr) {
    const SimTime slice =
        cfg_.calendar
            ? SimTime::nanos(static_cast<std::int64_t>(cfg_.slice_us * 1e3))
            : SimTime::seconds(3600);
    optics::Schedule sched(cfg_.node_num, cfg_.uplink, period, slice);
    for (const auto& c : circuits) {
      if (!sched.feasible(c)) return false;
      sched.add_circuit(c);
    }
    net_ = std::make_unique<core::Network>(cfg_.to_network_config(),
                                           std::move(sched), profile_cached());
    ctl_ = std::make_unique<core::Controller>(*net_);
    core::SouthboundConfig sb;
    sb.latency =
        SimTime::nanos(static_cast<std::int64_t>(cfg_.sb_latency_us * 1e3));
    sb.loss_prob = cfg_.sb_loss_prob;
    sb.dup_prob = cfg_.sb_dup_prob;
    ctl_->southbound().configure(sb);
    ctl_->set_fencing(cfg_.sb_fencing);
    if (recorder_) net_->sim().set_recorder(recorder_.get());
    if (cfg_.controller_replicas > 1) {
      core::QuorumConfig qc;
      qc.replicas = cfg_.controller_replicas;
      qc.election_timeout = SimTime::nanos(
          static_cast<std::int64_t>(cfg_.election_timeout_us * 1e3));
      qc.heartbeat =
          SimTime::nanos(static_cast<std::int64_t>(cfg_.heartbeat_us * 1e3));
      quorum_ = std::make_unique<core::ControllerQuorum>(*net_, *ctl_, qc);
      quorum_->start();
    }
    bw_baseline_.assign(static_cast<std::size_t>(cfg_.node_num), 0);
    net_->start();
    return true;
  }
  return ctl_->deploy_topo(circuits, period, reconfig_delay);
}

optics::OcsProfile Net::profile_cached() const { return cfg_.profile(); }

bool Net::deploy_routing(const std::vector<core::Path>& paths, Lookup lookup,
                         Multipath multipath, int priority) {
  assert(net_ && "deploy_topo must run before deploy_routing");
  return ctl_->deploy_routing(paths, lookup, multipath, priority);
}

bool Net::add(const core::TftEntry& entry, NodeId node) {
  assert(net_);
  return ctl_->add(entry, node);
}

std::vector<NodeId> Net::neighbors(NodeId node, SliceId ts) const {
  assert(net_);
  std::vector<NodeId> out;
  for (const auto& [n, port] : net_->schedule().neighbors(node, ts)) {
    (void)port;
    out.push_back(n);
  }
  return out;
}

std::optional<core::Path> Net::earliest_path(NodeId src, NodeId dst,
                                             SliceId ts, int max_hop) const {
  assert(net_);
  return routing::earliest_path(net_->schedule(), src, dst, ts, max_hop);
}

topo::TrafficMatrix Net::collect() {
  assert(net_);
  return topo::TrafficMatrix::from_bytes(net_->collect_tm());
}

std::int64_t Net::buffer_usage(NodeId node, PortId port) const {
  assert(net_);
  if (port == kInvalidPort) return net_->tor(node).buffer_bytes();
  return net_->tor(node).port_buffer_bytes(port);
}

void Net::enable_tracing(std::size_t capacity) {
  if (!recorder_) {
    recorder_ = std::make_unique<telemetry::FlightRecorder>(capacity);
  }
  if (net_) net_->sim().set_recorder(recorder_.get());
}

void Net::write_chrome_trace(const std::string& path) const {
  if (!recorder_) {
    throw std::runtime_error("write_chrome_trace: tracing not enabled");
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  // Sharded runs record worker-lane events into per-shard rings; stitch
  // them into one trace with shard-labelled node tracks.
  parallel::ShardedEngine* engine =
      net_ && net_->sharded() ? net_->sharded_engine() : nullptr;
  if (engine && !engine->worker_recorders().empty()) {
    std::vector<const telemetry::FlightRecorder*> shards;
    for (const auto& r : engine->worker_recorders()) {
      shards.push_back(r.get());
    }
    out << telemetry::chrome_trace_json(*recorder_, shards);
    return;
  }
  out << telemetry::chrome_trace_json(*recorder_);
}

void Net::write_metrics_csv(const std::string& path) {
  assert(net_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("metrics: cannot open " + path);
  out << net_->sim().metrics().csv();
}

traffic::TrafficEngine& Net::start_traffic(traffic::TrafficSpec spec) {
  if (!net_) {
    throw std::runtime_error(
        "start_traffic: deploy a topology first (the network materializes "
        "on the first deploy_topo call)");
  }
  if (traffic_) traffic_->stop();
  traffic_ = std::make_unique<traffic::TrafficEngine>(*net_, std::move(spec));
  traffic_->start();
  return *traffic_;
}

chaos::InvariantMonitor& Net::enable_invariants(SimTime poll) {
  if (!net_) {
    throw std::runtime_error(
        "enable_invariants: deploy a topology first (the network "
        "materializes on the first deploy_topo call)");
  }
  if (!monitor_) {
    monitor_ = std::make_unique<chaos::InvariantMonitor>(*net_);
    monitor_->attach_controller(ctl_.get());
    if (quorum_) monitor_->attach_quorum(quorum_.get());
    if (net_->sharded()) monitor_->attach_parallel(net_->sharded_engine());
    monitor_->start(poll);
  }
  return *monitor_;
}

std::string Net::check_invariants() {
  if (!monitor_) {
    throw std::runtime_error("check_invariants: call enable_invariants first");
  }
  monitor_->check_at_drain();
  return monitor_->report();
}

services::HealthScanner& Net::enable_health_scanner() {
  if (!net_) {
    throw std::runtime_error(
        "enable_health_scanner: deploy a topology first (the network "
        "materializes on the first deploy_topo call)");
  }
  if (!scanner_) {
    scanner_ = std::make_unique<services::HealthScanner>(*net_);
    scanner_->set_controller(ctl_.get());
    if (monitor_) monitor_->attach_ladder(&scanner_->ladder());
    scanner_->start();
  }
  return *scanner_;
}

std::int64_t Net::bw_usage(NodeId node) {
  assert(net_);
  std::int64_t total = 0;
  auto& tor = net_->tor(node);
  for (PortId p = 0; p < tor.num_uplinks(); ++p) {
    total += tor.uplink_tx_bytes(p);
  }
  auto& base = bw_baseline_[static_cast<std::size_t>(node)];
  const std::int64_t delta = total - base;
  base = total;
  return delta;
}

}  // namespace oo::api
