#include "core/flow_table.h"

#include <bit>
#include <stdexcept>
#include <utility>

namespace oo::core {

FlowSinkTable::Sink* FlowSinkTable::find(FlowId flow) {
  if (size_ == 0) return nullptr;
  const std::size_t mask = entries_.size() - 1;
  // At most 75% full, so every probe ends at an empty entry.
  for (std::size_t i = home(flow);; i = (i + 1) & mask) {
    const Entry& e = entries_[i];
    if (e.id == kEmpty) return nullptr;
    if (e.id == flow) return &sink(e.sink);
  }
}

void FlowSinkTable::assign(FlowId flow, Sink fn) {
  if (flow == kEmpty) throw std::invalid_argument("flow id is the empty marker");
  if ((size_ + 1) * 4 > entries_.size() * 3) grow();
  const std::size_t mask = entries_.size() - 1;
  for (std::size_t i = home(flow);; i = (i + 1) & mask) {
    Entry& e = entries_[i];
    if (e.id == flow) {
      sink(e.sink) = std::move(fn);
      return;
    }
    if (e.id == kEmpty) {
      e.id = flow;
      if (free_sinks_.empty()) {
        if (sinks_ % kChunk == 0) {
          chunks_.push_back(std::make_unique<Sink[]>(kChunk));
        }
        e.sink = sinks_++;
      } else {
        e.sink = free_sinks_.back();
        free_sinks_.pop_back();
      }
      sink(e.sink) = std::move(fn);
      ++size_;
      return;
    }
  }
}

void FlowSinkTable::erase(FlowId flow) {
  if (size_ == 0) return;
  const std::size_t mask = entries_.size() - 1;
  std::size_t i = home(flow);
  for (;; i = (i + 1) & mask) {
    if (entries_[i].id == kEmpty) return;
    if (entries_[i].id == flow) break;
  }
  const std::uint32_t freed = entries_[i].sink;
  // Backward shift: walk the rest of the probe run and pull into the hole
  // every entry whose home is not cyclically in (hole, its position].
  for (std::size_t j = (i + 1) & mask; entries_[j].id != kEmpty;
       j = (j + 1) & mask) {
    if (((j - home(entries_[j].id)) & mask) >= ((j - i) & mask)) {
      entries_[i] = entries_[j];
      i = j;
    }
  }
  entries_[i] = Entry{};
  --size_;
  free_sinks_.push_back(freed);
  // Destroyed last: a closure's destructor may unbind other flows.
  const Sink doomed = std::move(sink(freed));
}

void FlowSinkTable::grow() {
  const std::vector<Entry> old = std::exchange(
      entries_, std::vector<Entry>(entries_.empty() ? 16 : 2 * entries_.size()));
  shift_ = 64 - std::countr_zero(entries_.size());
  const std::size_t mask = entries_.size() - 1;
  for (const Entry& e : old) {
    if (e.id == kEmpty) continue;
    std::size_t i = home(e.id);
    while (entries_[i].id != kEmpty) i = (i + 1) & mask;
    entries_[i] = e;
  }
}

}  // namespace oo::core
