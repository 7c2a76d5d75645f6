#include "services/monitor.h"

namespace oo::services {

Monitor::Monitor(core::Network& net, SimTime interval)
    : net_(net),
      interval_(interval),
      utilization_(static_cast<std::size_t>(net.num_tors())),
      last_tx_bytes_(static_cast<std::size_t>(net.num_tors()), 0) {}

void Monitor::start() {
  if (started_) return;
  started_ = true;
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

}  // namespace oo::services
