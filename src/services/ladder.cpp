#include "services/ladder.h"

namespace oo::services {

namespace {
// The rung whose entry shifts load off the node.
constexpr int kSteerRung = 2;
}  // namespace

Ladder::Ladder(core::Network& net, const char* name,
               std::vector<const char*> rungs, int readmit_rounds)
    : net_(net),
      name_(name),
      rungs_(std::move(rungs)),
      readmit_rounds_(readmit_rounds),
      nodes_(static_cast<std::size_t>(net.num_tors())) {}

const char* Ladder::rung_name(int r) const {
  return r >= 0 && r <= top() ? rungs_[static_cast<std::size_t>(r)] : "?";
}

bool Ladder::can_climb(NodeId n) const {
  const int next = rung(n) + 1;
  return next < top() || (next == top() && net_.electrical() != nullptr);
}

void Ladder::climb(NodeId n) {
  int& r = node(n).rung;
  const int from = r++;
  if (r == top()) net_.set_node_quarantined(n, true);
  if (tap_) tap_(n, from, r);
  if (r == kSteerRung && steer_) steer_(n, true);
}

void Ladder::readmit(NodeId n) {
  Node& st = node(n);
  const int from = st.rung;
  st.rung = 0;
  st.clean_rounds = 0;
  if (from == top()) net_.set_node_quarantined(n, false);
  if (from >= kSteerRung && steer_) steer_(n, false);
  if (tap_) tap_(n, from, 0);
}

bool Ladder::clean_round(NodeId n) {
  Node& st = node(n);
  return st.rung > 0 && ++st.clean_rounds >= readmit_rounds_;
}

}  // namespace oo::services
