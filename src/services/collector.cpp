#include "services/collector.h"

namespace oo::services {

topo::TrafficMatrix Collector::collect_now() {
  return topo::TrafficMatrix::from_bytes(net_.collect_tm());
}

void Collector::start() {
  if (started_) return;
  started_ = true;
  timer_ = net_.sim().schedule_every(net_.sim().now() + interval_, interval_,
                                     [this]() {
                                       if (cb_) cb_(collect_now());
                                     });
}

}  // namespace oo::services
