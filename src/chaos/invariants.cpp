#include "chaos/invariants.h"

#include <utility>

#include "common/log.h"
#include "core/controller.h"
#include "core/quorum.h"
#include "parallel/sharded.h"
#include "services/ladder.h"
#include "transport/fluid.h"

namespace oo::chaos {

InvariantMonitor::InvariantMonitor(core::Network& net)
    : net_(net),
      seen_node_epoch_(static_cast<std::size_t>(net.num_tors()), 0),
      seen_agent_epoch_(static_cast<std::size_t>(net.num_tors()), 0),
      violations_ctr_(&net.sim().metrics().counter("chaos.violations")) {
  net_.sim().set_invariant_sink(this);
}

InvariantMonitor::~InvariantMonitor() {
  if (net_.sim().invariant_sink() == this) {
    net_.sim().set_invariant_sink(nullptr);
  }
}

void InvariantMonitor::attach_controller(const core::Controller* ctl) {
  ctl_ = ctl;
}

void InvariantMonitor::attach_quorum(const core::ControllerQuorum* quorum) {
  quorum_ = quorum;
}

void InvariantMonitor::attach_ladder(services::Ladder* ladder) {
  ladder->set_transition_hook([this, ladder](NodeId n, int from, int to) {
    check_ladder_transition(*ladder, n, from, to);
  });
}

void InvariantMonitor::check_ladder_transition(const services::Ladder& ladder,
                                               NodeId node, int from, int to) {
  const bool legal =
      (to == from + 1 && to <= ladder.top()) || (to == 0 && from > 0);
  if (!legal) {
    violate(ladder.name(), "node " + std::to_string(node) +
                               ": illegal transition " +
                               ladder.rung_name(from) + " -> " +
                               ladder.rung_name(to));
  }
}

void InvariantMonitor::attach_fluid(const transport::FluidSolver* fluid) {
  fluid_ = fluid;
}

void InvariantMonitor::attach_parallel(parallel::ShardedEngine* engine) {
  if (!engine) return;
  engine->set_violation_handler(
      [this](const char* invariant, const std::string& detail) {
        violate(invariant, detail);
      });
}

void InvariantMonitor::add_check(std::string name, CheckFn fn) {
  custom_.emplace_back(std::move(name), std::move(fn));
}

void InvariantMonitor::start(SimTime interval) {
  if (started_) return;
  started_ = true;
  interval_ = interval;
  if (interval_ > SimTime::zero()) poll_round();
}

void InvariantMonitor::poll_round() {
  check_now();
  poll_ = net_.sim().schedule_in(interval_, [this] { poll_round(); },
                                 "chaos.poll");
}

void InvariantMonitor::check_now() {
  check_epochs();
  check_quorum();
  check_fluid();
  check_queues();
  check_custom();
}

void InvariantMonitor::check_at_drain() {
  check_now();
  check_conservation();
}

void InvariantMonitor::check_epochs() {
  const int n = net_.num_tors();
  for (NodeId node = 0; node < n; ++node) {
    const auto i = static_cast<std::size_t>(node);
    const std::uint64_t fwd = net_.node_epoch(node);
    if (fwd < seen_node_epoch_[i]) {
      violate("epoch_monotonicity",
              "node " + std::to_string(node) + ": forwarding epoch went " +
                  std::to_string(seen_node_epoch_[i]) + " -> " +
                  std::to_string(fwd));
    }
    seen_node_epoch_[i] = std::max(seen_node_epoch_[i], fwd);
    if (ctl_ != nullptr) {
      const std::uint64_t committed = ctl_->node_committed_epoch(node);
      if (committed < seen_agent_epoch_[i]) {
        violate("epoch_monotonicity",
                "node " + std::to_string(node) +
                    ": agent committed epoch went " +
                    std::to_string(seen_agent_epoch_[i]) + " -> " +
                    std::to_string(committed));
      }
      seen_agent_epoch_[i] = std::max(seen_agent_epoch_[i], committed);
    }
  }
}

void InvariantMonitor::check_quorum() {
  if (quorum_ == nullptr || !quorum_->started()) return;
  using Role = core::ControllerQuorum::Role;
  const int n = quorum_->replicas();
  // At most one *live* leader per term. Split-brain across different terms
  // is a legal transient; two leaders sharing a term is never legal.
  for (int a = 0; a < n; ++a) {
    if (quorum_->role(a) != Role::Leader || quorum_->replica_dead(a)) {
      continue;
    }
    for (int b = a + 1; b < n; ++b) {
      if (quorum_->role(b) != Role::Leader || quorum_->replica_dead(b)) {
        continue;
      }
      if (quorum_->replica_term(a) == quorum_->replica_term(b)) {
        violate("quorum_leader_unique",
                "replicas " + std::to_string(a) + " and " +
                    std::to_string(b) + " both lead term " +
                    std::to_string(quorum_->replica_term(a)));
      }
    }
  }
  // Committed prefixes agree: up to min(commit_index) any two *live*
  // replicas hold identical records (the property failover correctness
  // rests on). Dead replicas are exempt: their state froze mid-crash, and
  // a log_divergence fault can corrupt a record under a frozen commit
  // index — the full-log sync repairs them on revival, before they act.
  for (int a = 0; a < n; ++a) {
    if (quorum_->replica_dead(a)) continue;
    for (int b = a + 1; b < n; ++b) {
      if (quorum_->replica_dead(b)) continue;
      const std::int64_t upto =
          std::min(quorum_->commit_index(a), quorum_->commit_index(b));
      const auto& la = quorum_->log(a);
      const auto& lb = quorum_->log(b);
      for (std::int64_t i = 0; i <= upto; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        if (idx >= la.size() || idx >= lb.size() || !(la[idx] == lb[idx])) {
          const auto rec = [](const std::vector<core::ControllerQuorum::LogRec>&
                                  log,
                              std::size_t j) {
            if (j >= log.size()) return std::string("<missing>");
            std::string s;
            s.append("(t=").append(std::to_string(log[j].term));
            s.append(" e=").append(std::to_string(log[j].epoch)).append(")");
            return s;
          };
          std::string d;
          d.append("replicas ").append(std::to_string(a)).append(" and ");
          d.append(std::to_string(b));
          d.append(" disagree on committed log index ").append(
              std::to_string(i));
          d.append(": ").append(rec(la, idx)).append(" vs ").append(
              rec(lb, idx));
          d.append(" [commits ")
              .append(std::to_string(quorum_->commit_index(a)))
              .append("/")
              .append(std::to_string(quorum_->commit_index(b)))
              .append(", terms ")
              .append(std::to_string(quorum_->replica_term(a)))
              .append("/")
              .append(std::to_string(quorum_->replica_term(b)))
              .append("]");
          violate("quorum_log_prefix", std::move(d));
          break;
        }
      }
    }
  }
}

void InvariantMonitor::check_fluid() {
  if (fluid_ == nullptr) return;
  std::string err = fluid_->conservation_check();
  if (!err.empty()) violate("fluid_conservation", std::move(err));
}

void InvariantMonitor::check_queues() {
  const auto& cfg = net_.config();
  // Generous per-port ceiling: a full calendar (one queue per slice in the
  // period) plus the FIFO. Anything above it — or any negative byte count —
  // is an accounting bug, not congestion.
  const std::int64_t bound =
      static_cast<std::int64_t>(net_.schedule().period()) *
          cfg.queue_capacity +
      core::kFifoCapacity;
  for (NodeId node = 0; node < net_.num_tors(); ++node) {
    const auto& tor = net_.tor(node);
    for (PortId p = 0; p < tor.num_uplinks(); ++p) {
      const std::int64_t bytes = tor.port_buffer_bytes(p);
      if (bytes < 0 || bytes > bound) {
        violate("queue_bounds",
                "tor " + std::to_string(node) + " port " + std::to_string(p) +
                    ": buffered bytes " + std::to_string(bytes) +
                    " outside [0, " + std::to_string(bound) + "]");
      }
    }
  }
}

void InvariantMonitor::check_custom() {
  for (const auto& [name, fn] : custom_) {
    std::string err = fn();
    if (!err.empty()) violate(name.c_str(), std::move(err));
  }
}

void InvariantMonitor::check_conservation() {
  const auto totals = net_.totals();
  const std::int64_t injected = net_.packets_injected();
  const std::int64_t terminated = totals.delivered + totals.fabric_drops +
                                  totals.congestion_drops +
                                  totals.no_route_drops +
                                  totals.electrical_drops;
  const std::int64_t queued = net_.queued_packets();
  if (injected != terminated + queued) {
    violate("packet_conservation",
            "injected " + std::to_string(injected) + " != delivered " +
                std::to_string(totals.delivered) + " + drops " +
                std::to_string(terminated - totals.delivered) +
                " + queued " + std::to_string(queued) + " (leak of " +
                std::to_string(injected - terminated - queued) +
                " packets)");
  }
}

void InvariantMonitor::on_past_schedule(SimTime when, SimTime now,
                                        const char* tag) {
  violate("no_past_events",
          std::string("event \"") + (tag != nullptr ? tag : "") +
              "\" scheduled at " + std::to_string(when.ns()) +
              "ns, before now=" + std::to_string(now.ns()) + "ns");
}

void InvariantMonitor::violate(const char* invariant, std::string detail) {
  const std::int64_t ordinal = total_violations_++;
  violations_ctr_->inc();
  OO_WARN_ONCE("chaos", "invariant violation detected (see "
                        "chaos.violations and InvariantMonitor::report)");
  if (auto* tr = net_.sim().recorder()) {
    tr->invariant_violation(net_.sim().now(), kInvalidNode, ordinal);
  }
  if (violations_.size() < kViolationCap) {
    violations_.push_back({invariant, net_.sim().now(),
                           net_.sim().events_executed(), std::move(detail)});
  }
}

std::string InvariantMonitor::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out.append("[").append(std::to_string(v.at.ns())).append("ns ev=");
    out.append(std::to_string(v.events_executed)).append("] ");
    out.append(v.invariant).append(": ").append(v.detail).append("\n");
  }
  if (total_violations_ > static_cast<std::int64_t>(violations_.size())) {
    out += "... and " +
           std::to_string(total_violations_ -
                          static_cast<std::int64_t>(violations_.size())) +
           " more\n";
  }
  return out;
}

}  // namespace oo::chaos
