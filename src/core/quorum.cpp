#include "core/quorum.h"

#include <algorithm>

#include "core/controller.h"
#include "core/network.h"

namespace oo::core {

ControllerQuorum::ControllerQuorum(Network& net, Controller& ctl,
                                   QuorumConfig cfg)
    : net_(net), ctl_(ctl), cfg_(cfg) {
  if (cfg_.replicas < 1) cfg_.replicas = 1;
  reps_.resize(static_cast<std::size_t>(cfg_.replicas));
  match_.assign(static_cast<std::size_t>(cfg_.replicas), 0);
  auto& m = net_.sim().metrics();
  elections_ = &m.counter("quorum.elections");
  term_cell_ = &m.counter("quorum.term");
  log_length_ = &m.counter("quorum.log_length");
  failovers_ = &m.counter("quorum.failovers");
  step_downs_ = &m.counter("quorum.step_downs");
  log_repairs_ = &m.counter("quorum.log_repairs");
  msgs_cut_ = &m.counter("quorum.msgs_cut");
  log_scrubs_ = &m.counter("quorum.log_scrubs");
  ctl_.southbound().set_num_replicas(cfg_.replicas);
  ctl_.attach_quorum(this);
}

ControllerQuorum::~ControllerQuorum() {
  for (auto& r : reps_) {
    r.election_timer.cancel();
    r.heartbeat_timer.cancel();
  }
  ctl_.attach_quorum(nullptr);
}

std::int64_t ControllerQuorum::elections() const { return elections_->value(); }
std::int64_t ControllerQuorum::failovers() const { return failovers_->value(); }
std::int64_t ControllerQuorum::step_downs() const {
  return step_downs_->value();
}

std::int64_t ControllerQuorum::log_scrubs() const {
  return log_scrubs_->value();
}
std::int64_t ControllerQuorum::log_repairs() const {
  return log_repairs_->value();
}
std::int64_t ControllerQuorum::msgs_cut() const { return msgs_cut_->value(); }

void ControllerQuorum::start() {
  if (started_) return;
  started_ = true;
  // Bootstrap leadership: replica 0 leads term 1 from the first event, so
  // pre-start deploys commit without an election and no randomness is
  // drawn until a failure forces one.
  for (auto& r : reps_) r.term = 1;
  acting_ = 0;
  reps_[0].role = Role::Leader;
  term_cell_->set(1);
  if (cfg_.replicas == 1) return;  // no peers: no timers, no messages
  auto& sim = net_.sim();
  reps_[0].heartbeat_timer = sim.schedule_every(
      sim.now() + cfg_.heartbeat, cfg_.heartbeat,
      [this]() { heartbeat_tick(0); }, "quorum.heartbeat");
  for (int r = 1; r < cfg_.replicas; ++r) reset_election_timer(r);
  if (auto* tr = sim.recorder()) tr->leader_elected(sim.now(), 0, 1);
}

bool ControllerQuorum::has_leader() const {
  for (const auto& r : reps_) {
    if (!r.dead && r.role == Role::Leader) return true;
  }
  return false;
}

bool ControllerQuorum::ctl_is_leader() const {
  const Replica& a = reps_[static_cast<std::size_t>(acting_)];
  return started_ && !a.dead && a.role == Role::Leader;
}

int ControllerQuorum::leader() const {
  int best = -1;
  std::uint64_t best_term = 0;
  for (int r = 0; r < cfg_.replicas; ++r) {
    const Replica& rep = reps_[static_cast<std::size_t>(r)];
    if (!rep.dead && rep.role == Role::Leader && rep.term > best_term) {
      best = r;
      best_term = rep.term;
    }
  }
  return best;
}

bool ControllerQuorum::send_msg(int from, int to,
                                std::function<void()> deliver,
                                const char* tag) {
  const Replica& src = reps_[static_cast<std::size_t>(from)];
  const Replica& dst = reps_[static_cast<std::size_t>(to)];
  if (src.dead) return false;
  if (src.cut || dst.cut || dst.dead) {
    msgs_cut_->inc();
    return false;
  }
  return ctl_.southbound().send_replica(to, std::move(deliver), tag) > 0;
}

void ControllerQuorum::reset_election_timer(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  rep.election_timer.cancel();
  if (rep.rng == nullptr) {
    // Each replica randomizes its own timeouts from a dedicated stream, so
    // the election order is a pure function of the network seed.
    rep.rng = std::make_unique<Rng>(derive_rng(
        net_.config().seed, 100 + r, "quorum.election"));
  }
  const double f = rep.rng->uniform01();
  const SimTime t = cfg_.election_timeout +
                    SimTime::nanos(static_cast<std::int64_t>(
                        f * static_cast<double>(cfg_.election_timeout.ns())));
  rep.election_timer = net_.sim().schedule_in(
      t, [this, r]() { begin_election(r); }, "quorum.election");
}

void ControllerQuorum::begin_election(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead || rep.role == Role::Leader) return;
  scrub(r);  // never stand for election on a checksum-flagged record
  rep.role = Role::Candidate;
  ++rep.term;
  rep.voted_for = r;
  rep.votes = 1;
  elections_->inc();
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->election_start(sim.now(), r, static_cast<std::int64_t>(rep.term));
  }
  reset_election_timer(r);  // retry with a fresh randomized timeout
  if (rep.votes >= majority()) {
    become_leader(r);
    return;
  }
  const std::uint64_t term = rep.term;
  const std::uint64_t last_term = rep.log.empty() ? 0 : rep.log.back().term;
  const auto len = static_cast<std::int64_t>(rep.log.size());
  for (int p = 0; p < cfg_.replicas; ++p) {
    if (p == r) continue;
    send_msg(r, p,
             [this, p, r, term, last_term, len]() {
               on_request_vote(p, r, term, last_term, len);
             },
             "quorum.vote_req");
  }
}

void ControllerQuorum::on_request_vote(int r, int from, std::uint64_t term,
                                       std::uint64_t last_term,
                                       std::int64_t len) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead) return;
  scrub(r);  // compare up-to-dateness against the scrubbed log
  if (term < rep.term) {
    // The candidate is behind: tell it so it steps back to follower.
    const std::uint64_t my_term = rep.term;
    send_msg(r, from,
             [this, from, my_term]() { note_higher_term(from, my_term); },
             "quorum.term_note");
    return;
  }
  if (term > rep.term) {
    if (rep.role == Role::Leader) {
      step_down(r, term);
    } else {
      rep.term = term;
      rep.voted_for = -1;
      rep.role = Role::Follower;
    }
  }
  // Raft's up-to-dateness gate: never elect a candidate whose log misses a
  // record some majority already holds.
  const std::uint64_t my_last = rep.log.empty() ? 0 : rep.log.back().term;
  const auto my_len = static_cast<std::int64_t>(rep.log.size());
  const bool up_to_date =
      last_term > my_last || (last_term == my_last && len >= my_len);
  if ((rep.voted_for == -1 || rep.voted_for == from) && up_to_date) {
    rep.voted_for = from;
    reset_election_timer(r);
    const std::uint64_t t = rep.term;
    send_msg(r, from, [this, from, r, t]() { on_vote(from, r, t); },
             "quorum.vote");
  }
}

void ControllerQuorum::on_vote(int r, int from, std::uint64_t term) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead || rep.role != Role::Candidate || term != rep.term) return;
  if (++rep.votes >= majority()) become_leader(r);
  (void)from;
}

void ControllerQuorum::become_leader(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  rep.role = Role::Leader;
  rep.election_timer.cancel();
  match_.assign(static_cast<std::size_t>(cfg_.replicas), 0);
  match_[static_cast<std::size_t>(r)] =
      static_cast<std::int64_t>(rep.log.size());
  pending_.clear();  // old leadership's unacked entries: callbacks dropped
  term_cell_->set(static_cast<std::int64_t>(rep.term));
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->leader_elected(sim.now(), r, static_cast<std::int64_t>(rep.term));
  }
  rep.heartbeat_timer.cancel();
  rep.heartbeat_timer = sim.schedule_every(
      sim.now() + cfg_.heartbeat, cfg_.heartbeat,
      [this, r]() { heartbeat_tick(r); }, "quorum.heartbeat");
  // Immediate sync round so followers learn the new term (and repair their
  // logs) before the first heartbeat interval elapses.
  heartbeat_tick(r);
  if (r != acting_) {
    takeover(r);
  } else if (ctl_.crashed()) {
    // The acting replica won its own re-election after a crash: same
    // engine, but the resync must still run — nobody else will call
    // restart() for it.
    ctl_.quorum_takeover(rep.term);
  }
}

void ControllerQuorum::takeover(int r) {
  acting_ = r;
  failovers_->inc();
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->quorum_failover(
        sim.now(),
        static_cast<std::int64_t>(reps_[static_cast<std::size_t>(r)].term),
        static_cast<std::int64_t>(max_logged_epoch()));
  }
  log_length_->set(log_length());
  // Re-point the controller engine at the new leader and resync every
  // in-flight epoch from the replicated log + per-ToR reports.
  ctl_.quorum_takeover(reps_[static_cast<std::size_t>(r)].term);
}

void ControllerQuorum::step_down(int r, std::uint64_t higher_term) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  rep.heartbeat_timer.cancel();
  rep.role = Role::Follower;
  rep.term = higher_term;
  rep.voted_for = -1;
  step_downs_->inc();
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->quorum_step_down(sim.now(), r,
                         static_cast<std::int64_t>(higher_term));
  }
  reset_election_timer(r);
}

void ControllerQuorum::note_higher_term(int r, std::uint64_t term) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead || term <= rep.term) return;
  if (rep.role == Role::Leader) {
    step_down(r, term);
  } else {
    rep.term = term;
    rep.voted_for = -1;
    rep.role = Role::Follower;
  }
}

void ControllerQuorum::heartbeat_tick(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead || rep.role != Role::Leader) return;
  scrub(r);  // a leader shipping a flagged record steps down instead
  if (rep.role != Role::Leader) return;
  for (int p = 0; p < cfg_.replicas; ++p) {
    if (p != r) send_sync(r, p);
  }
}

void ControllerQuorum::send_sync(int from, int to) {
  const Replica& rep = reps_[static_cast<std::size_t>(from)];
  // Full-log sync: the payload is the leader's whole log (small — one
  // record per transaction phase), so a lost or divergent suffix heals in
  // one round instead of Raft's back-off walk.
  std::vector<LogRec> log = rep.log;
  const std::uint64_t term = rep.term;
  const std::int64_t ci = rep.commit_index;
  send_msg(from, to,
           [this, to, from, term, log = std::move(log), ci]() mutable {
             on_sync(to, from, term, std::move(log), ci);
           },
           "quorum.sync");
}

void ControllerQuorum::on_sync(int r, int from, std::uint64_t term,
                               std::vector<LogRec> log,
                               std::int64_t commit_index) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead) return;
  if (term < rep.term) {
    // A deposed leader reconnecting after a partition: make it observe the
    // higher term and step down.
    const std::uint64_t my_term = rep.term;
    send_msg(r, from,
             [this, from, my_term]() { note_higher_term(from, my_term); },
             "quorum.term_note");
    return;
  }
  if (term > rep.term || rep.role == Role::Candidate) {
    if (rep.role == Role::Leader) {
      step_down(r, term);
    } else {
      rep.term = term;
      rep.voted_for = -1;
      rep.role = Role::Follower;
    }
  }
  reset_election_timer(r);
  const bool prefix =
      rep.log.size() <= log.size() &&
      std::equal(rep.log.begin(), rep.log.end(), log.begin());
  if (!prefix) log_repairs_->inc();  // divergent tail overwritten
  if (rep.log != log) rep.log = std::move(log);
  rep.corrupt_idx = -1;  // full-log rewrite: the flagged record is gone
  rep.commit_index = std::min(
      commit_index, static_cast<std::int64_t>(rep.log.size()) - 1);
  const auto len = static_cast<std::int64_t>(rep.log.size());
  const std::uint64_t t = rep.term;
  send_msg(r, from, [this, from, r, t, len]() { on_sync_ack(from, r, t, len); },
           "quorum.sync_ack");
}

void ControllerQuorum::on_sync_ack(int r, int from, std::uint64_t term,
                                   std::int64_t len) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead) return;
  if (term > rep.term) {
    note_higher_term(r, term);
    return;
  }
  if (rep.role != Role::Leader || term != rep.term) return;
  auto& m = match_[static_cast<std::size_t>(from)];
  m = std::max(m, len);
  if (r == acting_) advance_commit(r);
}

void ControllerQuorum::advance_commit(int leader) {
  Replica& rep = reps_[static_cast<std::size_t>(leader)];
  // Collect majority-reached callbacks before firing any: a callback (the
  // controller's commit fan-out) can issue a follow-up deploy that appends
  // to pending_, which would invalidate an in-flight iteration.
  std::vector<std::function<void()>> ready;
  for (std::size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    for (int f = 0; f < cfg_.replicas; ++f) {
      if (!p.acked[static_cast<std::size_t>(f)] &&
          match_[static_cast<std::size_t>(f)] > p.index) {
        p.acked[static_cast<std::size_t>(f)] = 1;
        ++p.acks;
      }
    }
    if (p.acks >= majority()) {
      rep.commit_index = std::max(rep.commit_index, p.index);
      ready.push_back(std::move(p.cb));
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (auto& cb : ready) {
    if (cb) cb();
  }
}

void ControllerQuorum::replicate(RecKind kind, std::uint64_t epoch,
                                 std::function<void()> on_majority) {
  Replica& rep = reps_[static_cast<std::size_t>(acting_)];
  if (rep.dead || rep.role != Role::Leader) return;  // callback dropped
  scrub(acting_);
  if (rep.role != Role::Leader) return;  // scrub demoted it: dropped
  rep.log.push_back({rep.term, epoch, kind});
  const auto idx = static_cast<std::int64_t>(rep.log.size()) - 1;
  log_length_->set(static_cast<std::int64_t>(rep.log.size()));
  auto& sim = net_.sim();
  if (auto* tr = sim.recorder()) {
    tr->quorum_replicate(sim.now(), static_cast<std::int64_t>(epoch), idx);
  }
  match_[static_cast<std::size_t>(acting_)] =
      static_cast<std::int64_t>(rep.log.size());
  if (majority() == 1) {
    rep.commit_index = idx;
    if (on_majority) on_majority();
    return;
  }
  Pending p;
  p.index = idx;
  p.acks = 1;  // self
  p.acked.assign(static_cast<std::size_t>(cfg_.replicas), 0);
  p.acked[static_cast<std::size_t>(acting_)] = 1;
  p.cb = std::move(on_majority);
  pending_.push_back(std::move(p));
  for (int f = 0; f < cfg_.replicas; ++f) {
    if (f != acting_) send_sync(acting_, f);
  }
}

bool ControllerQuorum::log_commits(std::uint64_t epoch) const {
  const Replica& rep = reps_[static_cast<std::size_t>(acting_)];
  for (const LogRec& rec : rep.log) {
    if (rec.kind == RecKind::Commit && rec.epoch == epoch) return true;
  }
  return false;
}

std::uint64_t ControllerQuorum::max_logged_epoch() const {
  const Replica& rep = reps_[static_cast<std::size_t>(acting_)];
  std::uint64_t m = 0;
  for (const LogRec& rec : rep.log) m = std::max(m, rec.epoch);
  return m;
}

int ControllerQuorum::kill_leader() {
  const int l = leader();
  if (l >= 0) kill_replica(l);
  return l;
}

void ControllerQuorum::kill_replica(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.dead) return;
  rep.dead = true;
  rep.role = Role::Follower;  // the process is gone; leadership dies with it
  rep.votes = 0;
  rep.election_timer.cancel();
  rep.heartbeat_timer.cancel();
  if (r == acting_) {
    pending_.clear();  // unacked commit records: their callbacks die here
    ctl_.crash();      // the engine's process was the leader's
  }
}

void ControllerQuorum::revive_replica(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (!rep.dead) return;
  rep.dead = false;
  rep.role = Role::Follower;
  // The log and (term, voted_for) are persistent state in Raft and survive
  // the restart; volatile election state re-arms from the timer.
  reset_election_timer(r);
}

void ControllerQuorum::set_partitioned(int r, bool cut) {
  reps_[static_cast<std::size_t>(r)].cut = cut;
}

void ControllerQuorum::diverge_log(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.log.empty()) {
    rep.log.push_back({rep.term, 1u << 20, RecKind::Abort});
  } else {
    rep.log.back().epoch += 1u << 20;  // corrupt the tail record
  }
  const auto idx = static_cast<std::int64_t>(rep.log.size()) - 1;
  rep.commit_index = std::min(rep.commit_index, idx - 1);
  // Checksum model: the record is flagged, and scrub() truncates it before
  // this replica can ship its log or stand for election on it. Until then
  // a leader's full-log sync may overwrite it in place (the follower
  // repair path the chaos drills count via log_repairs).
  if (rep.corrupt_idx < 0) rep.corrupt_idx = idx;
  else rep.corrupt_idx = std::min(rep.corrupt_idx, idx);
}

void ControllerQuorum::scrub(int r) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  if (rep.corrupt_idx < 0) return;
  rep.log.resize(static_cast<std::size_t>(rep.corrupt_idx));
  rep.commit_index = std::min(
      rep.commit_index, static_cast<std::int64_t>(rep.log.size()) - 1);
  rep.corrupt_idx = -1;
  log_scrubs_->inc();
  if (rep.role == Role::Leader) {
    // A leader that cannot trust its own store must not lead: step down at
    // the same term and let a replica holding a clean copy win the next
    // election (committed records live on the majority by definition).
    step_down(r, rep.term);
  }
}

void ControllerQuorum::force_log(int r, std::vector<LogRec> log) {
  Replica& rep = reps_[static_cast<std::size_t>(r)];
  rep.log = std::move(log);
  rep.commit_index =
      std::min(rep.commit_index, static_cast<std::int64_t>(rep.log.size()) - 1);
}

}  // namespace oo::core
