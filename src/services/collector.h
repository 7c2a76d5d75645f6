// Traffic collection (§5.2): hosts report per-destination byte counters to
// their switches, which aggregate into the controller's global traffic
// matrix every collection interval — the collect(interval) API of Tab. 1.
// TA control loops hang their topology/routing re-optimization off the
// callback (Fig. 5b/5c).
#pragma once

#include <functional>

#include "common/time.h"
#include "core/network.h"
#include "topo/traffic_matrix.h"

namespace oo::services {

class Collector {
 public:
  using Callback = std::function<void(const topo::TrafficMatrix&)>;

  Collector(core::Network& net, SimTime interval, Callback cb)
      : net_(net), interval_(interval), cb_(std::move(cb)) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void start();
  // One-shot collection (drains the counters).
  topo::TrafficMatrix collect_now();

 private:
  core::Network& net_;
  SimTime interval_;
  Callback cb_;
  sim::ScopedEventHandle timer_;
  bool started_ = false;
};

}  // namespace oo::services
