// Test-only references for the time-flow table and the routing compile, as
// the simulator had them before the dense index and the hash-merged compile:
// a table that probes one std::unordered_map per specificity level, and a
// compile that merges every per-hop action through a std::map. The
// differential tests in test_tft_oracle.cpp hold core::TimeFlowTable and
// core::compile_routing to them. Keep this code as it is; it is the
// specification the fast paths must reproduce.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/path.h"
#include "core/time_flow_table.h"

namespace oo::core::reference {

class TimeFlowTable {
 public:
  // Installs or replaces the entry with the identical match+priority.
  void add(TftEntry entry) {
    assert(entry.match.dst != kInvalidNode && "dst is a required match field");
    assert(!entry.actions.empty());
    const auto key =
        key_of(entry.match.arr_slice, entry.match.src, entry.match.dst);
    auto [it, inserted] = entries_.try_emplace(key, entry);
    if (!inserted && entry.priority >= it->second.priority) {
      it->second = std::move(entry);
    }
  }

  // Removes every entry whose match equals `m` (any priority).
  void remove(const TftMatch& m) {
    entries_.erase(key_of(m.arr_slice, m.src, m.dst));
  }

  // Removes every entry installed at exactly `priority`.
  void remove_priority(int priority) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.priority == priority) {
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void clear() { entries_.clear(); }

  // Longest-prefix-of-specificity lookup: (arr,src) exact beats (arr,*)
  // beats (*,src) beats (*,*).
  const TftEntry* lookup(SliceId arr_slice, NodeId src, NodeId dst) const {
    const std::uint64_t keys[4] = {
        key_of(arr_slice, src, dst),
        key_of(arr_slice, kInvalidNode, dst),
        key_of(kAnySlice, src, dst),
        key_of(kAnySlice, kInvalidNode, dst),
    };
    for (const auto key : keys) {
      if (auto it = entries_.find(key); it != entries_.end()) {
        return &it->second;
      }
    }
    return nullptr;
  }

  // Weighted pick over the entry's actions by packet hash.
  static const TftAction& select_action(const TftEntry& entry,
                                        std::uint32_t hash) {
    assert(!entry.actions.empty());
    if (entry.actions.size() == 1) return entry.actions.front();
    double total = 0.0;
    for (const auto& a : entry.actions) total += a.weight;
    const double x =
        static_cast<double>(hash) / 4294967296.0 * (total > 0 ? total : 1.0);
    double acc = 0.0;
    for (const auto& a : entry.actions) {
      acc += a.weight;
      if (x < acc) return a;
    }
    return entry.actions.back();
  }

  std::size_t size() const { return entries_.size(); }

 private:
  static std::uint64_t key_of(SliceId arr, NodeId src, NodeId dst) {
    // +2 biases wildcards (-1) into non-negative space.
    const auto a = static_cast<std::uint64_t>(arr + 2);
    const auto s = static_cast<std::uint64_t>(src + 2);
    const auto d = static_cast<std::uint64_t>(dst + 2);
    return (d << 42) | (s << 21) | a;
  }

  // match-key -> best entry (highest priority) for that exact match.
  std::unordered_map<std::uint64_t, TftEntry> entries_;
};

// Compiles `paths` into per-node entries at `priority`, merging per-(node,
// match) action sets so parallel paths become one multipath entry;
// identical actions merge by summing their weights.
inline std::vector<std::vector<TftEntry>> compile_routing(
    const std::vector<Path>& paths, LookupMode lookup, int priority,
    int num_nodes) {
  using Key = std::tuple<NodeId, SliceId, NodeId, NodeId>;
  std::map<Key, std::vector<TftAction>> merged;

  auto add_action = [&merged](NodeId node, SliceId arr, NodeId src,
                              NodeId dst, TftAction action) {
    auto& actions = merged[{node, arr, src, dst}];
    for (auto& existing : actions) {
      if (existing.hops.size() == action.hops.size()) {
        bool same = true;
        for (std::size_t i = 0; i < existing.hops.size(); ++i) {
          if (existing.hops[i].egress != action.hops[i].egress ||
              existing.hops[i].dep_slice != action.hops[i].dep_slice) {
            same = false;
            break;
          }
        }
        if (same) {
          existing.weight += action.weight;
          return;
        }
      }
    }
    actions.push_back(std::move(action));
  };

  for (const auto& path : paths) {
    if (lookup == LookupMode::SourceRouting) {
      TftAction action;
      action.weight = path.weight;
      action.hops.reserve(path.hops.size());
      for (const auto& h : path.hops) {
        action.hops.push_back(net::SourceHop{h.egress, h.dep_slice});
      }
      add_action(path.hops.front().node, path.start_slice, path.src, path.dst,
                 std::move(action));
      continue;
    }
    // Per-hop: the first hop matches the path's source, transit hops use a
    // source wildcard; each next node sees the previous departure slice.
    SliceId arr = path.start_slice;
    for (std::size_t i = 0; i < path.hops.size(); ++i) {
      const PathHop& h = path.hops[i];
      TftAction action;
      action.weight = path.weight;
      action.hops.push_back(net::SourceHop{h.egress, h.dep_slice});
      const NodeId src_match = (i == 0) ? path.src : kInvalidNode;
      add_action(h.node, arr, src_match, path.dst, std::move(action));
      arr = h.dep_slice;
    }
  }

  std::vector<std::vector<TftEntry>> out(static_cast<std::size_t>(num_nodes));
  for (auto& [key, actions] : merged) {
    const auto [node, arr, src, dst] = key;
    TftEntry entry;
    entry.match = TftMatch{arr, src, dst};
    entry.actions = std::move(actions);
    entry.priority = priority;
    out[static_cast<std::size_t>(node)].push_back(std::move(entry));
  }
  return out;
}

}  // namespace oo::core::reference
