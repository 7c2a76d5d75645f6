// The time-flow table (§3) — OpenOptics' "narrow waist" between optical
// hardware and software. Match fields: arrival time slice (wildcardable),
// source node (wildcardable), destination node. Actions: one or more
// <egress port, departure slice> hop sequences; a single hop means per-hop
// lookup, multiple hops mean source routing, and multiple actions form a
// multipath set selected by packet hash. With both slice fields wildcarded
// the table reduces to a classical flow table (backward compatibility with
// TA architectures and static DCNs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

// One selected action as the data plane applies it: this node's hop, and
// the hops a source-routing action writes onto the packet (empty for a
// per-hop action). `rest` points into the table and is valid until the
// table next changes.
struct TftHops {
  net::SourceHop first;
  std::span<const net::SourceHop> rest;
};

// Entries are stored compactly, not as TftEntry objects. An entry with one
// action of one hop is a 4-byte cell holding that hop; every other entry is
// a cell holding the index of a pooled entry, whose actions and hops sit in
// per-table pools. A source-wildcard match, (arr, *, dst) or (*, *, dst),
// owns the cell at [arr + 1][dst] of a dense grid; a grid row exists only
// for a slice that holds such an entry. Source-specific matches sit in a
// hash map that lookup() probes only when the table holds any. A lone
// action's weight and the entry's stamp, its (priority, epoch) pair, live in
// side arrays beside the cells, which lookups never read: the stamp as a
// 2-byte index into the table's palette of the distinct stamps its entries
// carry. A grid slot so costs 14 bytes. The palette drops the stamps no
// entry carries any more when it reaches its limit, twice its size at the
// last drop (64 at least), and in every change of many entries at once
// (install, remove_priority, set_epoch, compact); a store that would need
// more than 65,536 stamps at once throws std::length_error. Every TftEntry
// field is kept exactly.
class TimeFlowTable {
 public:
  class Hit;

  TimeFlowTable() = default;
  // A table whose grid spans destinations [0, destinations) from the start,
  // so adds in any order never re-lay its rows.
  explicit TimeFlowTable(std::size_t destinations);

  // Installs `entry`, or replaces the entry with the identical match when
  // `entry`'s priority is equal or higher (a lower one is ignored).
  void add(const TftEntry& entry);
  // add()s every entry of `from`, in one pass over its cells.
  void install(const TimeFlowTable& from);
  // Merges one action, `hops` at `weight`, into the entry at match `m`: a
  // new match (or one held at a lower priority) gets an entry of that
  // action alone; an action whose hops equal one of the entry's adds its
  // weight to that action, so weights sum in merge order; any other is
  // appended after the entry's actions. A higher-priority entry is kept.
  // The compile's merge rule (compile_routing).
  void merge(const TftMatch& m, std::span<const net::SourceHop> hops,
             double weight, int priority);
  // Frees the pool space of replaced and removed entries, which the table
  // otherwise reclaims only once dead entries outnumber live ones.
  void compact();
  // Removes the entry whose match equals `m`, if any.
  void remove(const TftMatch& m);
  // Removes every entry installed at exactly `priority` — clearing a
  // superseded routing overlay (e.g. a stale failure-recovery deploy).
  void remove_priority(int priority);
  void clear();
  // Stamps every entry with `epoch` (a transaction's, before it installs).
  void set_epoch(std::uint64_t epoch);

  // Longest-prefix-of-specificity lookup: (arr,src) exact beats (arr,*)
  // beats (*,src) beats (*,*).
  Hit lookup(SliceId arr_slice, NodeId src, NodeId dst) const;

  // Picks an action from the entry's multipath set using the packet hash
  // (weighted reservoir over action weights). Hit::select picks the same.
  static const TftAction& select_action(const TftEntry& entry,
                                        std::uint32_t hash);

  std::size_t size() const { return size_; }
  // Every entry, ordered by (arrival slice, source, destination).
  std::vector<TftEntry> entries() const;
  // (priority, epoch) stamps the palette holds: those live entries carry,
  // and those no entry has carried since the palette was last rebuilt.
  std::size_t stamps() const { return stamps_.size(); }

 private:
  // A cell is kEmpty; a hop, with kPooled clear, egress + 2 in bits 16-30
  // and departure slice + 1 in bits 0-15; or kPooled | a pooled entry's
  // index. A hop outside those ranges is pooled.
  using Cell = std::uint32_t;
  static constexpr Cell kEmpty = 0xFFFF'FFFF;
  static constexpr Cell kPooled = 0x8000'0000;
  static constexpr std::int32_t kNone = -1;  // no grid row
  static constexpr std::size_t kNoCell = SIZE_MAX;

  static bool fits(const net::SourceHop& h) {
    return h.egress >= -2 && h.egress <= 0x7FFF - 2 && h.dep_slice >= -1 &&
           h.dep_slice <= 0xFFFF - 1;
  }
  static Cell hop_cell(const net::SourceHop& h) {
    return (static_cast<Cell>(h.egress + 2) << 16) |
           static_cast<Cell>(h.dep_slice + 1);
  }
  static net::SourceHop hop_of(Cell c) {
    return {static_cast<PortId>(c >> 16) - 2,
            static_cast<SliceId>(c & 0xFFFF) - 1};
  }

  // An entry's priority and epoch, held once per table in the palette.
  struct Stamp {
    int priority;
    std::uint64_t epoch;
    bool operator==(const Stamp&) const = default;
  };
  // A palette index. The palette never holds more stamps than it can index.
  using StampIndex = std::uint16_t;
  static constexpr std::size_t kMaxStamps = std::size_t{1} << 16;
  static constexpr std::size_t kMinStampLimit = 64;

  // Everything stored for one entry besides its match.
  struct Slot {
    Cell cell = kEmpty;
    StampIndex stamp = 0;
    double weight = 1.0;  // a hop cell's lone action; unused when pooled
  };

  // Pooled entries: entries[i] spans actions[action, action + actions), and
  // each action spans hops[hop, hop + hops).
  struct PoolEntry {
    std::uint32_t action;
    std::uint32_t actions;
  };
  struct PoolAction {
    std::uint32_t hop;
    std::uint32_t hops;
    double weight;
  };
  struct Pool {
    std::vector<PoolEntry> entries;
    std::vector<PoolAction> actions;
    std::vector<net::SourceHop> hops;

    std::uint32_t add(std::span<const TftAction> entry_actions);
    // Copies `from`'s entry `entry`; returns its index here.
    std::uint32_t copy(const Pool& from, std::uint32_t entry);
  };

  static std::uint64_t key_of(SliceId arr, NodeId src, NodeId dst);
  static TftMatch match_of(std::uint64_t key);
  // Grid index of (arr, *, dst)'s cell, or kNoCell when its row or column
  // does not exist.
  std::size_t grid_index(SliceId arr, NodeId dst) const {
    // kAnySlice wraps to row 0; a slice below it or a negative destination
    // wraps past every row or column.
    const auto row = static_cast<std::size_t>(arr) + 1;
    const auto col = static_cast<std::size_t>(dst);
    if (row >= row_of_.size() || col >= width_) return kNoCell;
    const std::int32_t r = row_of_[row];
    return r == kNone ? kNoCell : static_cast<std::size_t>(r) * width_ + col;
  }
  Cell wildcard_cell(SliceId arr, NodeId dst) const {
    const std::size_t i = grid_index(arr, dst);
    return i == kNoCell ? kEmpty : cells_[i];
  }
  // As grid_index, but creates the row or column when missing.
  std::size_t make_grid_index(SliceId arr, NodeId dst);
  Slot grid_slot(std::size_t i) const {
    return {cells_[i], stamp_[i], weight_[i]};
  }
  int priority_of(const Slot& s) const { return stamps_[s.stamp].priority; }
  void set_grid_slot(std::size_t i, const Slot& s);
  const Slot* find_by_src(SliceId arr, NodeId src, NodeId dst) const;
  // lookup() of a table that holds source-specific matches.
  Hit lookup_by_src(SliceId arr_slice, NodeId src, NodeId dst) const;
  Slot slot_of(const TftMatch& m) const;
  void widen(std::size_t width);

  // Stores the slot `make` builds from the current one (kEmpty when the
  // match is new) at match `m`, unless a higher-priority entry holds that
  // match; `make` runs only when the slot is stored.
  template <class MakeSlot>
  void put(const TftMatch& m, int priority, MakeSlot make);
  // The palette index of `s`: the stamp resolved most recently, else a
  // search, else a new index (rebuilding the palette first when it is at
  // its limit).
  StampIndex stamp_of(const Stamp& s);
  // Rebuilds a palette of more than one stamp from the stamps live entries
  // carry, merging equal ones, re-indexes every entry, and lets the palette
  // grow to twice its new size (at least kMinStampLimit) before the next
  // rebuild.
  void reclaim_stamps();
  Slot store(std::span<const TftAction> actions, StampIndex stamp);
  Slot adopt(const TimeFlowTable& from, Slot s);
  void release(Cell c);
  void compact_if_sparse();
  void rebuild(const TftMatch& m, const Slot& s, TftEntry& out) const;
  TftHops select_pooled(std::uint32_t entry, std::uint32_t hash) const;

  // row_of_[arr + 1] is slice arr's row (kNone = no row); a row is width_
  // cells, one per destination, and the side arrays run beside cells_.
  // What lookup() reads comes first.
  std::vector<std::int32_t> row_of_;
  std::size_t width_ = 0;
  std::vector<Cell> cells_;
  // Source-specific match key -> its slot.
  std::unordered_map<std::uint64_t, Slot> by_src_;
  std::vector<double> weight_;
  std::vector<StampIndex> stamp_;
  // The palette: stamps_[i] is the stamp index i names. It grows to
  // stamp_limit_, then is rebuilt from the live entries' stamps.
  std::vector<Stamp> stamps_;
  std::size_t stamp_limit_ = kMinStampLimit;
  StampIndex last_stamp_ = 0;  // the index stamp_of() resolved last
  Pool pool_;
  std::size_t dead_pooled_ = 0;  // pooled entries no cell refers to
  std::size_t size_ = 0;
  mutable TftEntry rebuilt_;     // Hit's rebuilt entry; merge's scratch
};

// lookup()'s answer: the matched entry's cell, or none (== nullptr). Valid
// until the table next changes.
class TimeFlowTable::Hit {
 public:
  bool operator==(std::nullptr_t) const { return cell_ == kEmpty; }

  // The action the packet hash picks, on a Hit that matched. A hop cell
  // answers without reading anything else.
  TftHops select(std::uint32_t hash) const {
    if ((cell_ & kPooled) == 0) return {hop_of(cell_), {}};
    return table_->select_pooled(cell_ & ~kPooled, hash);
  }

  // The matched entry rebuilt from its cell, side arrays and pools (tests,
  // diagnostics); nullptr when nothing matched. The table holds one rebuilt
  // entry: it is valid until the table changes or rebuilds another.
  operator const TftEntry*() const;
  const TftEntry* operator->() const { return *this; }

 private:
  friend class TimeFlowTable;
  Hit(const TimeFlowTable* table, const TftMatch& match, Cell cell)
      : table_(table), match_(match), cell_(cell) {}

  const TimeFlowTable* table_;
  TftMatch match_;
  Cell cell_;
};

inline TimeFlowTable::Hit TimeFlowTable::lookup(SliceId arr_slice,
                                                NodeId src,
                                                NodeId dst) const {
  // Without source-specific matches only the grid's two levels can match.
  if (!by_src_.empty()) return lookup_by_src(arr_slice, src, dst);
  if (const Cell c = wildcard_cell(arr_slice, dst); c != kEmpty) {
    return Hit(this, {arr_slice, kInvalidNode, dst}, c);
  }
  return Hit(this, {kAnySlice, kInvalidNode, dst},
             wildcard_cell(kAnySlice, dst));
}

}  // namespace oo::core
