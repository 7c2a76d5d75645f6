// The time-flow table (§3) — OpenOptics' "narrow waist" between optical
// hardware and software. Match fields: arrival time slice (wildcardable),
// source node (wildcardable), destination node. Actions: one or more
// <egress port, departure slice> hop sequences; a single hop means per-hop
// lookup, multiple hops mean source routing, and multiple actions form a
// multipath set selected by packet hash. With both slice fields wildcarded
// the table reduces to a classical flow table (backward compatibility with
// TA architectures and static DCNs).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "net/packet.h"

namespace oo::core {

// How deploy_routing() compiles paths into entries (Tab. 1, LOOKUP).
enum class LookupMode { PerHop, SourceRouting };
// Multipath hashing granularity (Tab. 1, MULTIPATH).
enum class MultipathMode { None, PerPacket, PerFlow };

struct TftMatch {
  SliceId arr_slice = kAnySlice;  // kAnySlice = wildcard
  NodeId src = kInvalidNode;      // kInvalidNode = wildcard
  NodeId dst = kInvalidNode;      // required

  bool operator==(const TftMatch&) const = default;
};

struct TftAction {
  // hops[0] is this node's <egress, departure slice>; extra hops are pushed
  // onto the packet as a source route.
  std::vector<net::SourceHop> hops;
  double weight = 1.0;  // WCMP-style weighted multipath
};

struct TftEntry {
  TftMatch match;
  std::vector<TftAction> actions;
  // Among equally specific matches the highest priority wins. TA designs use
  // this to overlay new routes atop old ones before reconfiguring (§2.2).
  int priority = 0;
  // Deployment epoch of the transaction that installed this entry (0 for
  // direct add()/pre-transactional installs) — diagnostic stamp matching
  // optics::Schedule::epoch(), so a post-mortem can tell which overlay
  // generation a node was forwarding on.
  std::uint64_t epoch = 0;
};

// Entries live in one vector. A source-wildcard match, (arr, *, dst) or
// (*, *, dst), is found through a dense [arr + 1][dst] grid of entry
// indices; a grid row exists only for a slice that holds such an entry.
// Source-specific matches sit in a hash map that lookup() probes only when
// the table holds any.
class TimeFlowTable {
 public:
  // Installs `entry`, or replaces the entry with the identical match when
  // `entry`'s priority is equal or higher (a lower one is ignored).
  void add(TftEntry entry);
  // Removes the entry whose match equals `m`, if any.
  void remove(const TftMatch& m);
  // Removes every entry installed at exactly `priority` — clearing a
  // superseded routing overlay (e.g. a stale failure-recovery deploy).
  void remove_priority(int priority);
  void clear();

  // Longest-prefix-of-specificity lookup: (arr,src) exact beats (arr,*)
  // beats (*,src) beats (*,*). The pointer is valid until the next change.
  const TftEntry* lookup(SliceId arr_slice, NodeId src, NodeId dst) const;

  // Picks an action from the entry's multipath set using the packet hash
  // (weighted reservoir over action weights).
  static const TftAction& select_action(const TftEntry& entry,
                                        std::uint32_t hash);

  std::size_t size() const { return entries_.size(); }

 private:
  static constexpr std::int32_t kNone = -1;  // empty index cell

  static std::uint64_t key_of(SliceId arr, NodeId src, NodeId dst);
  // Entry index stored for `m`'s match, or nullptr when none is.
  std::int32_t* find_index(const TftMatch& m);
  // As find_index, but creates the cell (holding kNone) when missing.
  std::int32_t* make_index(const TftMatch& m);
  const TftEntry* find_by_src(SliceId arr, NodeId src, NodeId dst) const;
  const TftEntry* find_wildcard(SliceId arr, NodeId dst) const;
  void widen(std::size_t width);
  void reindex();

  std::vector<TftEntry> entries_;
  // row_of_[arr + 1] is slice arr's row in cells_ (kNone = no row); a row
  // is width_ cells, one per destination, each an entries_ index or kNone.
  std::vector<std::int32_t> row_of_;
  std::vector<std::int32_t> cells_;
  std::size_t width_ = 0;
  // Source-specific match key -> entries_ index.
  std::unordered_map<std::uint64_t, std::int32_t> by_src_;
};

}  // namespace oo::core
