#include "services/sync_watchdog.h"

#include <algorithm>

#include "core/controller.h"
#include "core/quorum.h"

namespace oo::services {

namespace {
// Cadence of the staleness / readmission scan.
constexpr SimTime kCheckInterval = SimTime::micros(50);
// Symptoms within kViolationWindow needed to take the next rung.
constexpr int kViolationThreshold = 3;
constexpr SimTime kViolationWindow = SimTime::micros(200);
constexpr int kMaxWidenings = 3;
// Re-probe backoff (doubles per lost probe, capped).
constexpr SimTime kProbeBackoffInitial = SimTime::micros(50);
constexpr SimTime kProbeBackoffCap = SimTime::micros(800);
// Consecutive clean rounds (fresh in-bound beacon, no symptoms) before a
// widened/quarantined node is restored.
constexpr int kReadmitCleanRounds = 3;
}  // namespace

SyncWatchdog::SyncWatchdog(core::Network& net)
    : net_(net),
      ladder_(net, "watchdog_ladder", {"healthy", "widened", "quarantined"},
              kReadmitCleanRounds),
      desyncs_(&net.sim().metrics().counter("sync.desync_detected")),
      widenings_(&net.sim().metrics().counter("sync.guard_widenings")),
      quarantines_(&net.sim().metrics().counter("sync.quarantines")),
      readmissions_(&net.sim().metrics().counter("sync.readmissions")),
      probes_ok_(
          &net.sim().metrics().counter("sync.probes", {{"result", "ok"}})),
      probes_lost_(
          &net.sim().metrics().counter("sync.probes", {{"result", "lost"}})),
      wrong_slice_seen_(
          &net.sim().metrics().counter("sync.symptoms_observed")) {}

void SyncWatchdog::set_controller(const core::Controller* ctl) {
  ctl_ = ctl;
  if (ctl_ != nullptr && probes_suppressed_ == nullptr) {
    // Registered only when leader-awareness is actually wired, so unwired
    // runs export exactly the pre-quorum registry.
    probes_suppressed_ = &net_.sim().metrics().counter(
        "watchdog.probes_suppressed_no_leader");
  }
}

void SyncWatchdog::start() {
  if (started_) return;
  started_ = true;
  nodes_.assign(static_cast<std::size_t>(net_.num_tors()), NodeState{});
  for (auto& st : nodes_) st.backoff = kProbeBackoffInitial;
  // Guard growth per widening, and the beacon staleness before a node is
  // flagged and re-probed.
  widen_step_ = net_.config().sync_error * 2;
  beacon_timeout_ = net_.config().resync_interval * 3;
  alive_ = std::make_shared<bool>(true);
  std::weak_ptr<bool> weak = alive_;
  // Fabric violations name the offending *sender* exactly: full ladder.
  net_.optical().on_timing_violation([this, weak](NodeId n, SimTime at) {
    if (auto a = weak.lock(); a && *a) record_symptom(n, at, true);
  });
  // Arrival symptoms are self-attributed by the observer: widen-only.
  net_.set_wrong_slice_arrival_hook([this, weak](NodeId n, SimTime at) {
    if (auto a = weak.lock(); a && *a) record_symptom(n, at, false);
  });
  check_handle_ = net_.sim().schedule_every(
      kCheckInterval, kCheckInterval, [this]() { check_round(); },
      "sync.watchdog");
}

void SyncWatchdog::stop() {
  if (!started_) return;
  started_ = false;
  if (alive_) *alive_ = false;
  alive_.reset();
  check_handle_.cancel();
}

void SyncWatchdog::record_symptom(NodeId n, SimTime at,
                                  bool sender_attributed) {
  if (!started_) return;
  // While the fabric is knowingly mixed-epoch (a deploy transaction has
  // committed on some ToRs but not others), wrong-slice arrivals are the
  // *control plane's* fault, not a clock problem at the observer — charging
  // them here would quarantine healthy nodes. Sender-attributed fabric
  // violations still count: a drifting clock misbehaves on any epoch.
  if (!sender_attributed && net_.epoch_mixed()) return;
  auto& st = nodes_[static_cast<std::size_t>(n)];
  // A quarantined node is already off the optical fabric; stray symptoms
  // (in-flight launches racing the flush) must not poison its clean count.
  if (ladder_.fenced(n)) return;
  wrong_slice_seen_->inc();
  st.symptom_since_check = true;
  if (!st.detected && st.window.empty()) st.first_symptom = at;
  st.window.push_back(at);
  const SimTime horizon = at - kViolationWindow;
  st.window.erase(std::remove_if(st.window.begin(), st.window.end(),
                                 [horizon](SimTime t) { return t < horizon; }),
                  st.window.end());
  if (sender_attributed) st.sender_evidence = true;
  if (static_cast<int>(st.window.size()) >= kViolationThreshold &&
      !st.escalate_pending) {
    st.escalate_pending = true;
    // Deferred one event: this path is reached synchronously from inside
    // OpticalFabric::transmit / TorSwitch arrival handling.
    std::weak_ptr<bool> weak = alive_;
    net_.sim().schedule_at(
        at,
        [this, n, weak]() {
          if (auto a = weak.lock(); a && *a) escalate(n);
        },
        "sync.escalate");
  }
}

void SyncWatchdog::escalate(NodeId n) {
  auto& st = nodes_[static_cast<std::size_t>(n)];
  st.escalate_pending = false;
  if (ladder_.fenced(n)) return;
  const SimTime now = net_.sim().now();
  const auto symptoms = static_cast<std::int64_t>(st.window.size());
  if (!st.detected) {
    st.detected = true;
    desyncs_->inc();
    const SimTime ttd = now - st.first_symptom;
    time_to_detect_us_.add(ttd.us());
    if (auto* tr = net_.sim().recorder()) {
      tr->desync(now, n, symptoms, ttd.ns());
    }
  }
  ladder_.reset_clean(n);
  if (st.widenings < kMaxWidenings) {
    ++st.widenings;
    net_.set_node_guard_extra(n, widen_step_ * st.widenings);
    widenings_->inc();
    if (auto* tr = net_.sim().recorder()) {
      tr->guard_widen(now, n, net_.node_guard_extra(n).ns(), st.widenings);
    }
    if (state(n) == TorState::Healthy) ladder_.climb(n);
  } else if (st.sender_evidence && ladder_.can_climb(n)) {
    quarantines_->inc();
    if (auto* tr = net_.sim().recorder()) tr->quarantine(now, n, symptoms);
    st.quarantined_at = now;
    ladder_.climb(n);
  }
  // Each rung of the ladder demands fresh evidence.
  st.window.clear();
  st.sender_evidence = false;
}

void SyncWatchdog::check_round() {
  if (!started_) return;
  const SimTime now = net_.sim().now();
  auto& clock = net_.clock();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    auto& st = nodes_[i];
    const SimTime last = clock.last_resync(n);
    const bool fresh = last != st.last_seen_resync;
    if (fresh) {
      st.last_seen_resync = last;
      st.stale_flagged = false;
      st.backoff = kProbeBackoffInitial;
    }
    // Beacon staleness: flag once per outage (widen-only evidence) and keep
    // re-probing with capped exponential backoff until one gets through.
    if (beacon_timeout_ > SimTime::zero() &&
        now - last > beacon_timeout_) {
      if (!st.stale_flagged) {
        st.stale_flagged = true;
        record_symptom(n, now, false);
      }
      if (!st.probe_pending) schedule_probe(n, now);
    }
    // Readmission: a clean round is a fresh beacon that measured the clock
    // back inside the bound, with no symptoms since the last scan.
    if (st.symptom_since_check) {
      ladder_.reset_clean(n);
    } else if (fresh && clock.within_bound(n, now) &&
               ladder_.clean_round(n)) {
      readmit(n);
    }
    st.symptom_since_check = false;
  }
}

void SyncWatchdog::probe(NodeId n) {
  auto& st = nodes_[static_cast<std::size_t>(n)];
  st.probe_pending = false;
  if (!started_) return;
  const SimTime now = net_.sim().now();
  // A scheduled beacon may have landed while this probe waited out its
  // backoff; don't spend a probe on a freshly disciplined clock.
  if (now - net_.clock().last_resync(n) <= beacon_timeout_) return;
  // Probes are answered by the controller; with it crashed — or with a
  // quorum mid-election — there is no leader to answer. Suppress the probe
  // and retry after the backoff instead of counting a spurious loss.
  if (ctl_ != nullptr &&
      (ctl_->crashed() ||
       (ctl_->quorum() != nullptr && ctl_->quorum()->started() &&
        !ctl_->quorum()->has_leader()))) {
    probes_suppressed_->inc();
    st.backoff = std::min(st.backoff * 2, kProbeBackoffCap);
    schedule_probe(n, now + st.backoff);
    return;
  }
  if (net_.probe_beacon(n)) {
    probes_ok_->inc();
    st.backoff = kProbeBackoffInitial;
    return;
  }
  probes_lost_->inc();
  st.backoff = std::min(st.backoff * 2, kProbeBackoffCap);
  schedule_probe(n, now + st.backoff);
}

void SyncWatchdog::schedule_probe(NodeId n, SimTime when) {
  nodes_[static_cast<std::size_t>(n)].probe_pending = true;
  std::weak_ptr<bool> weak = alive_;
  net_.sim().schedule_at(
      when,
      [this, n, weak]() {
        if (auto a = weak.lock(); a && *a) probe(n);
      },
      "sync.probe");
}

void SyncWatchdog::readmit(NodeId n) {
  auto& st = nodes_[static_cast<std::size_t>(n)];
  const SimTime now = net_.sim().now();
  if (ladder_.fenced(n)) {
    readmissions_->inc();
    const SimTime held = now - st.quarantined_at;
    quarantine_us_.add(held.us());
    if (auto* tr = net_.sim().recorder()) tr->readmit(now, n, held.ns());
  }
  net_.set_node_guard_extra(n, SimTime::zero());
  ladder_.readmit(n);
  st.widenings = 0;
  st.detected = false;
  st.window.clear();
  st.sender_evidence = false;
}

}  // namespace oo::services
