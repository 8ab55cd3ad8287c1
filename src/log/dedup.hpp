// Redundant-logging elimination (extension; paper §6 future work).
//
// "We believe there are numerous opportunities to improve the performance of
// our design by incorporating compiler optimizations to eliminate overheads
// currently incurred to deal with logging and commits."  The classic such
// optimization is *undo-log deduplication*: within one synchronized frame,
// only the FIRST store to a location needs its old value logged — a rollback
// of the frame restores the pre-frame value, and intermediate values are
// never observable (the undo replay would overwrite them anyway).
//
// DedupTable remembers, per location, the innermost frame that last logged
// it.  Frame ids are globally unique and never reused, so entries from dead
// frames are inherently stale and need no eviction for correctness; the
// engine clears the table at outermost commit/abort purely to bound memory.
//
// Nested frames stay correct automatically: an inner frame has a different
// id, so its first store to an outer-logged location IS logged — the inner
// rollback needs that entry to restore the value the outer frame had written.
#pragma once

#include <cstdint>
#include <vector>

#include "log/undo_log.hpp"

namespace rvk::log {

class DedupTable {
 public:
  // The slot array is allocated by the first should_log(), so a thread that
  // never logs with dedup on (the default) pays nothing for its table.
  explicit DedupTable(std::size_t initial_capacity = 256)
      : initial_capacity_(round_up_pow2(initial_capacity)) {}

  DedupTable(const DedupTable&) = delete;
  DedupTable& operator=(const DedupTable&) = delete;

  // Returns true if `addr` has NOT yet been logged within frame `frame_id`
  // (caller must then log it); records the pair either way.
  bool should_log(const Word* addr, std::uint64_t frame_id) {
    if (size_ * 10 >= slots_.size() * 7) grow();  // also the first allocation
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(addr) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.addr == addr) {
        if (s.frame_id == frame_id) return false;  // duplicate in this frame
        s.frame_id = frame_id;
        return true;
      }
      if (s.addr == nullptr) {
        s.addr = addr;
        s.frame_id = frame_id;
        ++size_;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  // Drops every entry (memory bound; correctness never requires it).
  void clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  // Frees the slot array (the next should_log() allocates it afresh).  The
  // scheduler calls this when the owning thread finishes.
  void release_storage() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    const Word* addr = nullptr;
    std::uint64_t frame_id = 0;
  };

  static std::size_t hash(const Word* addr) {
    auto h = reinterpret_cast<std::uintptr_t>(addr);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 16;
    while (p < n) p <<= 1;
    return p;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? initial_capacity_ : old.size() * 2, Slot{});
    size_ = 0;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.addr == nullptr) continue;
      std::size_t i = hash(s.addr) & mask;
      while (slots_[i].addr != nullptr) i = (i + 1) & mask;
      slots_[i] = s;
      ++size_;
    }
  }

  const std::size_t initial_capacity_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace rvk::log
