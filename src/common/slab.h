// Slot storage whose objects never move. Each object is built in place in a
// fixed-size chunk that stays allocated until the slab dies, so a reference
// to one object stays valid while others are added: an object may add to
// its own slab while it runs (a completion that launches the next
// transfer). A slot is named by a 32-bit index, and freed slots are reused
// last in, first out. The free list is the only record of which slots are
// empty, so a slot costs exactly sizeof(T).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace oo {

template <typename T, std::uint32_t kChunk = 64>
class Slab {
 public:
  // Slots per chunk: the slab grows this many slots at a time.
  static constexpr std::uint32_t kChunkSlots = kChunk;

  Slab() = default;
  ~Slab() {
    std::vector<bool> empty(used_);
    for (const std::uint32_t i : free_) empty[i] = true;
    for (std::uint32_t i = 0; i < used_; ++i) {
      if (!empty[i]) std::destroy_at(&(*this)[i]);
    }
  }
  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  // The slot the next emplace() fills.
  std::uint32_t next_slot() const {
    return free_.empty() ? used_ : free_.back();
  }
  // Builds a T from `args` in slot next_slot() and returns that index.
  template <typename... A>
  std::uint32_t emplace(A&&... args) {
    std::uint32_t i;
    if (free_.empty()) {
      if (used_ % kChunk == 0) {
        chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
      }
      i = used_++;
    } else {
      i = free_.back();
      free_.pop_back();
    }
    try {
      ::new (address(i)) T(std::forward<A>(args)...);
    } catch (...) {
      free_.push_back(i);
      throw;
    }
    return i;
  }
  T& operator[](std::uint32_t i) { return *std::launder(address(i)); }
  const T& operator[](std::uint32_t i) const {
    return *std::launder(address(i));
  }
  // Destroys slot i's object, then frees the slot. The destructor may add
  // to or erase from this slab; it never gets slot i back.
  void erase(std::uint32_t i) {
    std::destroy_at(&(*this)[i]);
    free_.push_back(i);
  }

  // Objects held.
  std::size_t size() const { return used_ - free_.size(); }
  // Slots ever filled: the objects held plus the free slots.
  std::size_t slots() const { return used_; }

 private:
  struct Chunk {
    alignas(T) std::byte bytes[kChunk * sizeof(T)];
  };
  T* address(std::uint32_t i) const {
    return reinterpret_cast<T*>(chunks_[i / kChunk]->bytes) + i % kChunk;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t used_ = 0;  // slots handed out so far
  std::vector<std::uint32_t> free_;
};

}  // namespace oo
