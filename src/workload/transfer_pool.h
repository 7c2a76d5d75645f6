// Owns in-flight FlowTransfers and reclaims them safely after completion
// (destruction is deferred one simulator event so a transfer never dies
// inside its own completion callback).
//
// A transfer and its caller's completion share one slot of a Slab, built in
// place at launch and destroyed by the reclaim event, so a flow costs no
// heap block of its own. The transfer's completion names the pool through a
// liveness cell the network keeps, and the slot by index: a closure of two
// words, which std::function holds inline. A completion posted through the
// sharded barrier can land after the pool has died; the pool clears its
// cell when it dies, and such a completion does nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/slab.h"
#include "core/network.h"
#include "transport/flow_transfer.h"

namespace oo::workload {

class TransferPool {
 public:
  using DoneFn = std::function<void(SimTime fct, std::int64_t retrans)>;

  explicit TransferPool(core::Network& net);
  // Deferred reclaim events are held as scoped handles: destroying the
  // pool cancels any still-pending ones, so the pool can die with reclaims
  // (or transfers) outstanding and nothing dangles.
  ~TransferPool();
  TransferPool(const TransferPool&) = delete;
  TransferPool& operator=(const TransferPool&) = delete;

  void launch(HostId src, HostId dst, std::int64_t bytes,
              transport::FlowTransferConfig cfg, DoneFn done);

  // Transfers held, completed ones included until their reclaim runs.
  std::size_t active() const { return flows_.size(); }
  // Slots built so far; a reclaimed slot serves the next launch.
  std::size_t slots() const { return flows_.slots(); }
  std::int64_t completed() const { return completed_; }
  std::int64_t launched() const { return launched_; }

 private:
  struct Flow {
    Flow(core::Network& net, HostId src, HostId dst, std::int64_t bytes,
         transport::FlowTransferConfig cfg,
         transport::FlowTransfer::DoneFn finish, DoneFn done)
        : transfer(net, src, dst, bytes, cfg, std::move(finish)),
          done(std::move(done)) {}
    transport::FlowTransfer transfer;
    DoneFn done;
  };
  struct Reclaim {
    std::uint32_t slot;
    sim::ScopedEventHandle event;
  };

  void finish(std::uint32_t slot, SimTime fct, std::int64_t retrans);
  void reclaim(std::uint32_t slot);

  core::Network& net_;
  // Points at this pool until it dies; the network keeps the cell.
  void*& cell_;
  Slab<Flow> flows_;
  // Pending deferred-reclaim events, one per completed flow; RAII-cancelled.
  std::vector<Reclaim> reclaims_;
  std::int64_t completed_ = 0;
  std::int64_t launched_ = 0;
};

}  // namespace oo::workload
