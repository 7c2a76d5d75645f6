#include "core/time_flow_table.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>
#include <type_traits>

namespace oo::core {

namespace {

// The action a packet hash picks from a multipath set: the point
// hash / 2^32 of the way along the weights' running sum (the last action
// when rounding runs past it).
template <class Action>
std::size_t pick(std::span<const Action> actions, std::uint32_t hash) {
  assert(!actions.empty());
  if (actions.size() == 1) return 0;
  double total = 0.0;
  for (const auto& a : actions) total += a.weight;
  const double x =
      static_cast<double>(hash) / 4294967296.0 * (total > 0 ? total : 1.0);
  double acc = 0.0;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    acc += actions[i].weight;
    if (x < acc) return i;
  }
  return actions.size() - 1;
}

}  // namespace

std::uint32_t TimeFlowTable::Pool::add(
    std::span<const TftAction> entry_actions) {
  const auto index = static_cast<std::uint32_t>(entries.size());
  assert(index < kPooled && "pool index overflows a cell");
  entries.push_back({static_cast<std::uint32_t>(actions.size()),
                     static_cast<std::uint32_t>(entry_actions.size())});
  for (const TftAction& a : entry_actions) {
    actions.push_back({static_cast<std::uint32_t>(hops.size()),
                       static_cast<std::uint32_t>(a.hops.size()), a.weight});
    hops.insert(hops.end(), a.hops.begin(), a.hops.end());
  }
  return index;
}

std::uint32_t TimeFlowTable::Pool::copy(const Pool& from,
                                        std::uint32_t entry) {
  const auto index = static_cast<std::uint32_t>(entries.size());
  assert(index < kPooled && "pool index overflows a cell");
  const PoolEntry& e = from.entries[entry];
  entries.push_back({static_cast<std::uint32_t>(actions.size()), e.actions});
  for (std::uint32_t i = e.action; i < e.action + e.actions; ++i) {
    PoolAction a = from.actions[i];
    const auto first = from.hops.begin() + a.hop;
    a.hop = static_cast<std::uint32_t>(hops.size());
    hops.insert(hops.end(), first, first + a.hops);
    actions.push_back(a);
  }
  return index;
}

TimeFlowTable::TimeFlowTable(std::size_t destinations)
    : width_(destinations) {}

std::uint64_t TimeFlowTable::key_of(SliceId arr, NodeId src, NodeId dst) {
  // +2 biases wildcards (-1) into non-negative space; 21 bits each.
  const auto a = static_cast<std::uint64_t>(std::int64_t{arr} + 2);
  const auto s = static_cast<std::uint64_t>(std::int64_t{src} + 2);
  const auto d = static_cast<std::uint64_t>(std::int64_t{dst} + 2);
  return (d << 42) | (s << 21) | a;
}

TftMatch TimeFlowTable::match_of(std::uint64_t key) {
  constexpr std::uint64_t kField = (std::uint64_t{1} << 21) - 1;
  return {static_cast<SliceId>(key & kField) - 2,
          static_cast<NodeId>((key >> 21) & kField) - 2,
          static_cast<NodeId>(key >> 42) - 2};
}

std::size_t TimeFlowTable::make_grid_index(SliceId arr, NodeId dst) {
  const auto row = static_cast<std::size_t>(arr) + 1;
  const auto col = static_cast<std::size_t>(dst);
  if (col >= width_) widen(col + 1);
  if (row >= row_of_.size()) row_of_.resize(row + 1, kNone);
  if (row_of_[row] == kNone) {
    row_of_[row] = static_cast<std::int32_t>(cells_.size() / width_);
    const std::size_t cells = cells_.size() + width_;
    cells_.resize(cells, kEmpty);
    weight_.resize(cells);
    stamp_.resize(cells);
  }
  return static_cast<std::size_t>(row_of_[row]) * width_ + col;
}

void TimeFlowTable::set_grid_slot(std::size_t i, const Slot& s) {
  cells_[i] = s.cell;
  stamp_[i] = s.stamp;
  weight_[i] = s.weight;
}

void TimeFlowTable::widen(std::size_t width) {
  const std::size_t rows = width_ == 0 ? 0 : cells_.size() / width_;
  auto relay = [&](auto& column, auto empty) {
    std::remove_reference_t<decltype(column)> out(rows * width, empty);
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy_n(column.begin() + static_cast<std::ptrdiff_t>(r * width_),
                  width_,
                  out.begin() + static_cast<std::ptrdiff_t>(r * width));
    }
    column = std::move(out);
  };
  relay(cells_, kEmpty);
  relay(weight_, 0.0);
  relay(stamp_, StampIndex{0});
  width_ = width;
}

const TimeFlowTable::Slot* TimeFlowTable::find_by_src(SliceId arr,
                                                      NodeId src,
                                                      NodeId dst) const {
  auto it = by_src_.find(key_of(arr, src, dst));
  return it == by_src_.end() ? nullptr : &it->second;
}

TimeFlowTable::Slot TimeFlowTable::slot_of(const TftMatch& m) const {
  if (m.src != kInvalidNode) return *find_by_src(m.arr_slice, m.src, m.dst);
  return grid_slot(grid_index(m.arr_slice, m.dst));
}

template <class MakeSlot>
void TimeFlowTable::put(const TftMatch& m, int priority, MakeSlot make) {
  Slot* in_map = nullptr;
  std::size_t i = kNoCell;
  Slot current;
  if (m.src != kInvalidNode) {
    in_map = &by_src_.try_emplace(key_of(m.arr_slice, m.src, m.dst))
                  .first->second;
    current = *in_map;
  } else {
    i = make_grid_index(m.arr_slice, m.dst);
    current = grid_slot(i);
  }
  if (current.cell == kEmpty) {
    ++size_;
  } else if (priority < priority_of(current)) {
    return;
  } else {
    release(current.cell);
  }
  const Slot s = make(current);
  if (in_map != nullptr) {
    *in_map = s;
  } else {
    set_grid_slot(i, s);
  }
}

TimeFlowTable::StampIndex TimeFlowTable::stamp_of(const Stamp& s) {
  if (last_stamp_ < stamps_.size() && stamps_[last_stamp_] == s) {
    return last_stamp_;
  }
  auto it = std::find(stamps_.begin(), stamps_.end(), s);
  if (it == stamps_.end()) {
    // A stamp not in the palette is carried by no entry, so a rebuild
    // cannot find it either.
    if (stamps_.size() >= stamp_limit_) reclaim_stamps();
    if (stamps_.size() == kMaxStamps) {
      throw std::length_error(
          "time-flow table: more than 65,536 distinct (priority, epoch) "
          "stamps in one table");
    }
    it = stamps_.insert(stamps_.end(), s);
  }
  last_stamp_ = static_cast<StampIndex>(it - stamps_.begin());
  return last_stamp_;
}

void TimeFlowTable::reclaim_stamps() {
  if (stamps_.size() <= 1) return;  // nothing to merge; at most one to drop
  constexpr std::size_t kUnseen = SIZE_MAX;
  std::vector<std::size_t> index(stamps_.size(), kUnseen);
  std::vector<Stamp> live;
  const auto move = [&](StampIndex& stamp) {
    std::size_t& i = index[stamp];
    if (i == kUnseen) {
      const auto it = std::find(live.begin(), live.end(), stamps_[stamp]);
      i = static_cast<std::size_t>(it - live.begin());
      if (it == live.end()) live.push_back(stamps_[stamp]);
    }
    stamp = static_cast<StampIndex>(i);
  };
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i] != kEmpty) move(stamp_[i]);
  }
  for (auto& [key, slot] : by_src_) {
    if (slot.cell != kEmpty) move(slot.stamp);
  }
  stamps_ = std::move(live);
  stamp_limit_ = std::clamp(2 * stamps_.size(), kMinStampLimit, kMaxStamps);
  last_stamp_ = 0;
}

TimeFlowTable::Slot TimeFlowTable::store(std::span<const TftAction> actions,
                                         StampIndex stamp) {
  Slot s{kEmpty, stamp, 1.0};
  const TftAction& a = actions.front();
  if (actions.size() == 1 && a.hops.size() == 1 && fits(a.hops[0])) {
    s.cell = hop_cell(a.hops[0]);
    s.weight = a.weight;
  } else {
    s.cell = kPooled | pool_.add(actions);
  }
  return s;
}

TimeFlowTable::Slot TimeFlowTable::adopt(const TimeFlowTable& from, Slot s) {
  if (s.cell & kPooled) {
    s.cell = kPooled | pool_.copy(from.pool_, s.cell & ~kPooled);
  }
  s.stamp = stamp_of(from.stamps_[s.stamp]);
  return s;
}

void TimeFlowTable::release(Cell c) {
  if (c != kEmpty && (c & kPooled)) ++dead_pooled_;
}

void TimeFlowTable::compact_if_sparse() {
  if (dead_pooled_ * 2 > pool_.entries.size()) compact();
}

void TimeFlowTable::compact() {
  reclaim_stamps();
  if (dead_pooled_ == 0) return;
  Pool live;
  auto move = [&](Cell& c) {
    if (c != kEmpty && (c & kPooled)) {
      c = kPooled | live.copy(pool_, c & ~kPooled);
    }
  };
  for (Cell& c : cells_) move(c);
  for (auto& [key, slot] : by_src_) move(slot.cell);
  pool_ = std::move(live);
  dead_pooled_ = 0;
}

void TimeFlowTable::add(const TftEntry& entry) {
  assert(entry.match.dst >= 0 && "dst is a required match field");
  assert(entry.match.arr_slice >= kAnySlice && entry.match.src >= kInvalidNode);
  assert(!entry.actions.empty());
  put(entry.match, entry.priority, [&](const Slot&) {
    return store(entry.actions, stamp_of({entry.priority, entry.epoch}));
  });
  compact_if_sparse();
}

void TimeFlowTable::install(const TimeFlowTable& from) {
  if (size_ == 0) {
    *this = from;
    return;
  }
  if (from.width_ > width_) widen(from.width_);
  for (std::size_t row = 0; row < from.row_of_.size(); ++row) {
    if (from.row_of_[row] == kNone) continue;
    const auto base = static_cast<std::size_t>(from.row_of_[row]) * from.width_;
    for (std::size_t col = 0; col < from.width_; ++col) {
      if (from.cells_[base + col] == kEmpty) continue;
      const Slot s = from.grid_slot(base + col);
      put({static_cast<SliceId>(row) - 1, kInvalidNode,
           static_cast<NodeId>(col)},
          from.priority_of(s), [&](const Slot&) { return adopt(from, s); });
    }
  }
  for (const auto& [key, s] : from.by_src_) {
    put(match_of(key), from.priority_of(s),
        [&](const Slot&) { return adopt(from, s); });
  }
  reclaim_stamps();
  compact_if_sparse();
}

void TimeFlowTable::merge(const TftMatch& m,
                          std::span<const net::SourceHop> hops, double weight,
                          int priority) {
  assert(m.dst >= 0 && "dst is a required match field");
  assert(m.arr_slice >= kAnySlice && m.src >= kInvalidNode);
  assert(!hops.empty());
  // Only a hop that fits() has a cell: an out-of-range hop's hop_cell()
  // can equal a pooled cell.
  const bool one_cell = hops.size() == 1 && fits(hops[0]);
  put(m, priority, [&](Slot s) {
    const bool fresh = s.cell == kEmpty || priority_of(s) < priority;
    if (fresh) s.stamp = stamp_of({priority, 0});
    if (fresh && one_cell) return Slot{hop_cell(hops[0]), s.stamp, weight};
    if (!fresh && one_cell && s.cell == hop_cell(hops[0])) {
      s.weight += weight;
      return s;
    }
    TftEntry& e = rebuilt_;
    if (fresh) {
      e = TftEntry{m, {}, priority, 0};
    } else {
      rebuild(m, s, e);
    }
    const auto same = std::find_if(
        e.actions.begin(), e.actions.end(), [&](const TftAction& a) {
          return std::equal(a.hops.begin(), a.hops.end(), hops.begin(),
                            hops.end(), [](const auto& x, const auto& y) {
                              return x.egress == y.egress &&
                                     x.dep_slice == y.dep_slice;
                            });
        });
    if (same != e.actions.end()) {
      same->weight += weight;
    } else {
      e.actions.push_back({{hops.begin(), hops.end()}, weight});
    }
    return store(e.actions, s.stamp);
  });
  compact_if_sparse();
}

void TimeFlowTable::remove(const TftMatch& m) {
  if (m.src != kInvalidNode) {
    auto it = by_src_.find(key_of(m.arr_slice, m.src, m.dst));
    if (it == by_src_.end()) return;
    release(it->second.cell);
    by_src_.erase(it);
  } else {
    const std::size_t i = grid_index(m.arr_slice, m.dst);
    if (i == kNoCell || cells_[i] == kEmpty) return;
    release(cells_[i]);
    cells_[i] = kEmpty;
  }
  --size_;
  compact_if_sparse();
}

void TimeFlowTable::remove_priority(int priority) {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i] != kEmpty && stamps_[stamp_[i]].priority == priority) {
      release(cells_[i]);
      cells_[i] = kEmpty;
      --size_;
    }
  }
  std::erase_if(by_src_, [&](const auto& kv) {
    if (priority_of(kv.second) != priority) return false;
    release(kv.second.cell);
    --size_;
    return true;
  });
  reclaim_stamps();
  compact_if_sparse();
}

void TimeFlowTable::clear() { *this = TimeFlowTable(); }

void TimeFlowTable::set_epoch(std::uint64_t epoch) {
  // Stamps that differed only in epoch become equal; the rebuild merges
  // them.
  for (Stamp& s : stamps_) s.epoch = epoch;
  reclaim_stamps();
}

TimeFlowTable::Hit TimeFlowTable::lookup_by_src(SliceId arr_slice,
                                                NodeId src,
                                                NodeId dst) const {
  // Specificity order mirrors TCAM priority: exact slice+src first, then
  // exact slice, then exact src, then the pure flow-table wildcard.
  if (const Slot* s = find_by_src(arr_slice, src, dst)) {
    return Hit(this, {arr_slice, src, dst}, s->cell);
  }
  if (const Cell c = wildcard_cell(arr_slice, dst); c != kEmpty) {
    return Hit(this, {arr_slice, kInvalidNode, dst}, c);
  }
  if (const Slot* s = find_by_src(kAnySlice, src, dst)) {
    return Hit(this, {kAnySlice, src, dst}, s->cell);
  }
  return Hit(this, {kAnySlice, kInvalidNode, dst},
             wildcard_cell(kAnySlice, dst));
}

TftHops TimeFlowTable::select_pooled(std::uint32_t entry,
                                     std::uint32_t hash) const {
  const PoolEntry& e = pool_.entries[entry];
  const auto actions =
      std::span<const PoolAction>(pool_.actions).subspan(e.action, e.actions);
  const PoolAction& a = actions[pick(actions, hash)];
  const auto hops =
      std::span<const net::SourceHop>(pool_.hops).subspan(a.hop, a.hops);
  return {hops.front(), hops.subspan(1)};
}

const TftAction& TimeFlowTable::select_action(const TftEntry& entry,
                                              std::uint32_t hash) {
  return entry.actions[pick(std::span<const TftAction>(entry.actions), hash)];
}

void TimeFlowTable::rebuild(const TftMatch& m, const Slot& s,
                            TftEntry& out) const {
  out.match = m;
  out.priority = stamps_[s.stamp].priority;
  out.epoch = stamps_[s.stamp].epoch;
  if ((s.cell & kPooled) == 0) {
    out.actions.assign(1, TftAction{{hop_of(s.cell)}, s.weight});
    return;
  }
  const PoolEntry& e = pool_.entries[s.cell & ~kPooled];
  out.actions.clear();
  for (std::uint32_t i = e.action; i < e.action + e.actions; ++i) {
    const PoolAction& a = pool_.actions[i];
    const auto first = pool_.hops.begin() + a.hop;
    out.actions.push_back(TftAction{{first, first + a.hops}, a.weight});
  }
}

std::vector<TftEntry> TimeFlowTable::entries() const {
  std::vector<TftEntry> out;
  out.reserve(size_);
  for (std::size_t row = 0; row < row_of_.size(); ++row) {
    if (row_of_[row] == kNone) continue;
    const auto base = static_cast<std::size_t>(row_of_[row]) * width_;
    for (std::size_t col = 0; col < width_; ++col) {
      if (cells_[base + col] == kEmpty) continue;
      rebuild({static_cast<SliceId>(row) - 1, kInvalidNode,
               static_cast<NodeId>(col)},
              grid_slot(base + col), out.emplace_back());
    }
  }
  for (const auto& [key, s] : by_src_) {
    rebuild(match_of(key), s, out.emplace_back());
  }
  std::sort(out.begin(), out.end(), [](const TftEntry& a, const TftEntry& b) {
    return std::tie(a.match.arr_slice, a.match.src, a.match.dst) <
           std::tie(b.match.arr_slice, b.match.src, b.match.dst);
  });
  return out;
}

TimeFlowTable::Hit::operator const TftEntry*() const {
  if (cell_ == kEmpty) return nullptr;
  table_->rebuild(match_, table_->slot_of(match_), table_->rebuilt_);
  return &table_->rebuilt_;
}

}  // namespace oo::core
