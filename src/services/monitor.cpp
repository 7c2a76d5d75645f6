#include "services/monitor.h"

namespace oo::services {

namespace {

Monitor::Health snapshot(core::Network& net) {
  Monitor::Health h;
  for (NodeId n = 0; n < net.num_tors(); ++n) {
    const auto& tor = net.tor(n);
    h.congestion_drops += tor.drops_congestion();
    h.no_route_drops += tor.drops_no_route();
    h.slice_misses += tor.slice_misses();
    h.deferrals += tor.deferrals();
  }
  // Per-fault-class fabric drops come straight from the shared registry
  // cells the fabric increments — one source of truth, no parallel counter
  // plumbing between Monitor and OpticalFabric.
  const auto& m = net.sim().metrics();
  h.failed_drops = m.counter_value("fabric.drops", {{"class", "failed"}});
  h.corrupt_drops = m.counter_value("fabric.drops", {{"class", "corrupt"}});
  h.no_circuit_drops =
      m.counter_value("fabric.drops", {{"class", "no_circuit"}});
  h.guard_drops = m.counter_value("fabric.drops", {{"class", "guard"}});
  h.boundary_drops = m.counter_value("fabric.drops", {{"class", "boundary"}});
  h.fabric_drops = h.failed_drops + h.corrupt_drops + h.no_circuit_drops +
                   h.guard_drops + h.boundary_drops;
  return h;
}

}  // namespace

Monitor::Monitor(core::Network& net, SimTime interval)
    : net_(net),
      interval_(interval),
      utilization_(static_cast<std::size_t>(net.num_tors())),
      last_tx_bytes_(static_cast<std::size_t>(net.num_tors()), 0) {}

void Monitor::start() {
  if (started_) return;
  started_ = true;
  baseline_ = snapshot(net_);
  timer_ = net_.sim().schedule_every(
      net_.sim().now() + interval_, interval_,
      [this]() {
        for (NodeId n = 0; n < net_.num_tors(); ++n) {
          auto& tor = net_.tor(n);
          all_.add(static_cast<double>(tor.buffer_bytes()));

          std::int64_t tx = 0;
          for (PortId p = 0; p < tor.num_uplinks(); ++p) {
            tx += tor.uplink_tx_bytes(p);
          }
          const std::int64_t delta =
              tx - last_tx_bytes_[static_cast<std::size_t>(n)];
          last_tx_bytes_[static_cast<std::size_t>(n)] = tx;
          const double capacity_bytes =
              net_.config().optical_bw / kBitsPerByte * interval_.sec() *
              static_cast<double>(tor.num_uplinks());
          utilization_[static_cast<std::size_t>(n)].add(
              capacity_bytes > 0 ? static_cast<double>(delta) / capacity_bytes
                                 : 0.0);
        }
      },
      "monitor");
}

Monitor::Health Monitor::health() const {
  const auto now = snapshot(net_);
  Health d;
  d.congestion_drops = now.congestion_drops - baseline_.congestion_drops;
  d.no_route_drops = now.no_route_drops - baseline_.no_route_drops;
  d.slice_misses = now.slice_misses - baseline_.slice_misses;
  d.deferrals = now.deferrals - baseline_.deferrals;
  d.fabric_drops = now.fabric_drops - baseline_.fabric_drops;
  d.failed_drops = now.failed_drops - baseline_.failed_drops;
  d.corrupt_drops = now.corrupt_drops - baseline_.corrupt_drops;
  d.no_circuit_drops = now.no_circuit_drops - baseline_.no_circuit_drops;
  d.guard_drops = now.guard_drops - baseline_.guard_drops;
  d.boundary_drops = now.boundary_drops - baseline_.boundary_drops;
  return d;
}

}  // namespace oo::services
