#include "core/time_flow_table.h"

#include <algorithm>
#include <cassert>

namespace oo::core {

std::uint64_t TimeFlowTable::key_of(SliceId arr, NodeId src, NodeId dst) {
  // +2 biases wildcards (-1) into non-negative space.
  const auto a = static_cast<std::uint64_t>(std::int64_t{arr} + 2);
  const auto s = static_cast<std::uint64_t>(std::int64_t{src} + 2);
  const auto d = static_cast<std::uint64_t>(std::int64_t{dst} + 2);
  return (d << 42) | (s << 21) | a;
}

std::int32_t* TimeFlowTable::find_index(const TftMatch& m) {
  if (m.src != kInvalidNode) {
    auto it = by_src_.find(key_of(m.arr_slice, m.src, m.dst));
    return it == by_src_.end() ? nullptr : &it->second;
  }
  const auto row = static_cast<std::size_t>(m.arr_slice) + 1;
  const auto col = static_cast<std::size_t>(m.dst);
  if (row >= row_of_.size() || row_of_[row] == kNone || col >= width_) {
    return nullptr;
  }
  return &cells_[static_cast<std::size_t>(row_of_[row]) * width_ + col];
}

std::int32_t* TimeFlowTable::make_index(const TftMatch& m) {
  if (m.src != kInvalidNode) {
    return &by_src_.try_emplace(key_of(m.arr_slice, m.src, m.dst), kNone)
                .first->second;
  }
  const auto row = static_cast<std::size_t>(m.arr_slice) + 1;
  const auto col = static_cast<std::size_t>(m.dst);
  if (col >= width_) widen(col + 1);
  if (row >= row_of_.size()) row_of_.resize(row + 1, kNone);
  if (row_of_[row] == kNone) {
    row_of_[row] = static_cast<std::int32_t>(cells_.size() / width_);
    cells_.resize(cells_.size() + width_, kNone);
  }
  return &cells_[static_cast<std::size_t>(row_of_[row]) * width_ + col];
}

void TimeFlowTable::widen(std::size_t width) {
  const std::size_t rows = width_ == 0 ? 0 : cells_.size() / width_;
  std::vector<std::int32_t> cells(rows * width, kNone);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(cells_.begin() + static_cast<std::ptrdiff_t>(r * width_),
                width_, cells.begin() + static_cast<std::ptrdiff_t>(r * width));
  }
  cells_ = std::move(cells);
  width_ = width;
}

void TimeFlowTable::reindex() {
  row_of_.clear();
  cells_.clear();
  by_src_.clear();
  width_ = 0;
  for (const auto& e : entries_) {
    if (e.match.src == kInvalidNode) {
      width_ = std::max(width_, static_cast<std::size_t>(e.match.dst) + 1);
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    *make_index(entries_[i].match) = static_cast<std::int32_t>(i);
  }
}

void TimeFlowTable::add(TftEntry entry) {
  assert(entry.match.dst >= 0 && "dst is a required match field");
  assert(entry.match.arr_slice >= kAnySlice && entry.match.src >= kInvalidNode);
  assert(!entry.actions.empty());
  std::int32_t* index = make_index(entry.match);
  if (*index == kNone) {
    *index = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(std::move(entry));
    return;
  }
  auto& current = entries_[static_cast<std::size_t>(*index)];
  if (entry.priority >= current.priority) current = std::move(entry);
}

void TimeFlowTable::remove(const TftMatch& m) {
  std::int32_t* index = find_index(m);
  if (index == nullptr || *index == kNone) return;
  const auto i = static_cast<std::size_t>(*index);
  if (m.src != kInvalidNode) {
    by_src_.erase(key_of(m.arr_slice, m.src, m.dst));
  } else {
    *index = kNone;
  }
  // Fill the hole with the last entry and repoint that entry's cell.
  if (i + 1 != entries_.size()) {
    entries_[i] = std::move(entries_.back());
    *find_index(entries_[i].match) = static_cast<std::int32_t>(i);
  }
  entries_.pop_back();
}

void TimeFlowTable::remove_priority(int priority) {
  const auto removed = std::erase_if(entries_, [priority](const TftEntry& e) {
    return e.priority == priority;
  });
  if (removed > 0) reindex();
}

void TimeFlowTable::clear() {
  entries_.clear();
  row_of_.clear();
  cells_.clear();
  by_src_.clear();
  width_ = 0;
}

const TftEntry* TimeFlowTable::find_by_src(SliceId arr, NodeId src,
                                           NodeId dst) const {
  auto it = by_src_.find(key_of(arr, src, dst));
  return it == by_src_.end() ? nullptr
                             : &entries_[static_cast<std::size_t>(it->second)];
}

const TftEntry* TimeFlowTable::find_wildcard(SliceId arr, NodeId dst) const {
  // kAnySlice wraps to row 0; a slice below it or a negative destination
  // wraps past every row or column.
  const auto row = static_cast<std::size_t>(arr) + 1;
  const auto col = static_cast<std::size_t>(dst);
  if (row >= row_of_.size() || col >= width_) return nullptr;
  const std::int32_t r = row_of_[row];
  if (r == kNone) return nullptr;
  const std::int32_t i = cells_[static_cast<std::size_t>(r) * width_ + col];
  return i == kNone ? nullptr : &entries_[static_cast<std::size_t>(i)];
}

const TftEntry* TimeFlowTable::lookup(SliceId arr_slice, NodeId src,
                                      NodeId dst) const {
  // Specificity order mirrors TCAM priority: exact slice+src first, then
  // exact slice, then exact src, then the pure flow-table wildcard.
  const bool by_src = !by_src_.empty();
  if (by_src) {
    if (const auto* e = find_by_src(arr_slice, src, dst)) return e;
  }
  if (const auto* e = find_wildcard(arr_slice, dst)) return e;
  if (by_src) {
    if (const auto* e = find_by_src(kAnySlice, src, dst)) return e;
  }
  return find_wildcard(kAnySlice, dst);
}

const TftAction& TimeFlowTable::select_action(const TftEntry& entry,
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

}  // namespace oo::core
