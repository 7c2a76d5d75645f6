#include "workload/transfer_pool.h"

#include <algorithm>

namespace oo::workload {

TransferPool::TransferPool(core::Network& net)
    : net_(net), cell_(net.liveness_cell()) {
  cell_ = this;
}

TransferPool::~TransferPool() { cell_ = nullptr; }

void TransferPool::launch(HostId src, HostId dst, std::int64_t bytes,
                          transport::FlowTransferConfig cfg, DoneFn done) {
  ++launched_;
  const std::uint32_t slot = flows_.next_slot();
  flows_.emplace(net_, src, dst, bytes, cfg,
                 [cell = &cell_, slot](SimTime fct, std::int64_t retrans) {
                   if (*cell != nullptr) {
                     static_cast<TransferPool*>(*cell)->finish(slot, fct,
                                                               retrans);
                   }
                 },
                 std::move(done));
  flows_[slot].transfer.start();
}

void TransferPool::finish(std::uint32_t slot, SimTime fct,
                          std::int64_t retrans) {
  ++completed_;
  // The slot is not freed before its reclaim, so a callback that launches
  // (and grows the slab) leaves its own closure in place.
  if (const DoneFn& done = flows_[slot].done) done(fct, retrans);
  // Reclaim after the callback stack unwinds. The scoped handle is
  // cancelled if the pool dies first, so the event can never touch a
  // destroyed pool.
  reclaims_.push_back(
      {slot, net_.sim().schedule_at(net_.sim().now(),
                                    [this, slot]() { reclaim(slot); })});
}

void TransferPool::reclaim(std::uint32_t slot) {
  flows_.erase(slot);
  // Drop this event's handle; cancelling a fired event is a no-op.
  const auto it =
      std::find_if(reclaims_.begin(), reclaims_.end(),
                   [slot](const Reclaim& r) { return r.slot == slot; });
  *it = std::move(reclaims_.back());
  reclaims_.pop_back();
}

}  // namespace oo::workload
