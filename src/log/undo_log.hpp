// Sequential undo log for speculative synchronized sections.
//
// Paper §3.1.2: "The barrier records in the log every modification performed
// by a thread executing a synchronized section. We implemented the log as a
// sequential buffer. For object and array stores, three values are recorded:
// object or array reference, value offset and the (old) value itself. For
// static variable stores two values are recorded: the offset of the static
// variable in the global symbol table and the old value."
//
// This module reproduces that structure.  Each green thread owns one
// UndoLog.  Monitor frames remember the log size at entry (a *watermark*);
// rollback of a frame replays the suffix above its watermark in reverse
// ("the log is processed in reverse to restore modified locations to their
// original values", §3.1.2) and truncates it.  Committing a *nested* frame
// leaves its entries in place: they remain speculative until the outermost
// frame commits, at which point the whole log is discarded.
//
// Storage is a chunked-segment arena (DESIGN.md §8): fixed-size entry
// chunks, allocated on demand.  Growth never copies — an append into a full
// chunk just opens the next one — so entry addresses are stable while the
// entries are live and the append fast path is a single bump-pointer store.
// Reverse replay walks the segments from the cursor down to the watermark.
//
// Chunks are pooled per OS thread (DESIGN.md §11): commit and rollback park
// retired chunks — those holding no live entries — on a thread-local free
// list, and next_chunk() takes from it before touching the allocator.  A
// steady-state section therefore never mallocs, and a thread that logged one
// burst does not hold its high-water footprint forever.  When a green thread
// finishes, the scheduler hands its whole log back (release_storage), so the
// next thread spawned on that OS thread logs into a recycled chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "support/annotations.hpp"

namespace rvk::log {

// 64-bit machine word; all heap slots are word-sized (heap/ packs smaller
// values into words), so one entry layout covers every store kind.
using Word = std::uint64_t;

enum class EntryKind : std::uint8_t {
  kObjectField,   // putfield
  kArrayElement,  // Xastore
  kStaticField,   // putstatic
  kVolatileSlot,  // volatile variable store (extension for jmm/ tracking)
};

// One logged store.  `addr` is the resolved location so replay is a single
// word write; `base`/`offset` retain the paper's (reference, offset) pair for
// diagnostics, statistics and tests.
struct Entry {
  Word* addr;
  Word old_value;
  const void* base;   // object/array reference, or statics-table slot
  std::uint32_t offset;
  EntryKind kind;
};

// Cold-path log events surfaced to the observability layer (obs/).  The
// dependency points upward — obs/ links this library and installs the hook;
// log/ knows nothing about obs/ — mirroring how rt/ exposes its switch
// probe to analysis/.  The hook fires only on cold paths (rollback replay,
// commit discard, chunk growth), never on the record() fast path, and the
// installed handler must honour the forbidden-region contract: rollback and
// discard run inside commit/abort paths, so it must not allocate, yield, or
// block (CLAUDE.md).
enum class LogEventKind : std::uint8_t {
  kRollback,       // arg = entries replayed
  kCommitDiscard,  // arg = entries discarded by the outermost commit
  kChunkGrow,      // arg = total entry capacity after growth
};

namespace detail {
extern void (*g_log_obs_hook)(LogEventKind, std::uint64_t);
// Chunks currently parked on the calling OS thread's free list
// (tests/diagnostics).
std::size_t pooled_chunk_count();
// Chunks the calling OS thread ever took from the allocator rather than the
// pool (tests/diagnostics: a bounded workload keeps this bounded).
std::uint64_t allocated_chunk_count();
}  // namespace detail

inline void set_log_obs_hook(void (*hook)(LogEventKind, std::uint64_t)) {
  detail::g_log_obs_hook = hook;
}

RVK_TRUSTED(
    "g_log_obs_hook is a function-pointer seam rvkcheck cannot resolve; the "
    "install contract above requires the handler to be forbidden-safe, and "
    "the obs-side handler is checked separately")
inline void log_obs_event(LogEventKind kind, std::uint64_t arg) {
  if (detail::g_log_obs_hook != nullptr) [[unlikely]] {
    detail::g_log_obs_hook(kind, arg);
  }
}

class UndoLog {
 public:
  // Entries per chunk.  4096 × 32 B = 128 KB — exactly glibc's default
  // mmap threshold, so a fresh chunk is typically its own mapping whose
  // pages fault in only as entries are written — while making the grow
  // branch fire once per 4096 appends.
  static constexpr std::size_t kChunkShift = 12;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkEntries - 1;

  // `initial_capacity` reserves *pointer* slots for ceil(cap/kChunkEntries)
  // chunks; the chunks themselves come from the per-thread pool (or the
  // allocator) on first use, and truncation returns retired ones there, so a
  // steady-state section never allocates.  An idle thread's log therefore
  // costs a few dozen bytes, not a pre-sized buffer.
  explicit UndoLog(std::size_t initial_capacity = 1 << 16) {
    chunks_.reserve((initial_capacity + kChunkEntries - 1) >> kChunkShift);
  }

  // Returns every chunk to the per-thread pool.
  ~UndoLog() { return_chunks(); }

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  // Appends one store record.  Called from the write-barrier slow path —
  // this is the per-store cost the paper's modified VM charges to every
  // thread, so it stays minimal: one predicted-not-taken chunk-full test
  // and one bump-pointer store.  The log keeps no counters; the engine
  // counts entries as they leave (commit discard, rollback replay).  Growth
  // never moves existing entries.
  RVK_MAY_ALLOC void record(EntryKind kind, Word* addr, Word old_value,
                            const void* base, std::uint32_t offset) {
    if (cursor_ == chunk_end_) [[unlikely]] next_chunk();
    *cursor_++ = Entry{addr, old_value, base, offset, kind};
  }

  // Current size; monitor frames capture this as their watermark.
  std::size_t watermark() const { return size(); }

  std::size_t size() const {
    if (chunk_begin_ == nullptr) return 0;
    return (active_ << kChunkShift) +
           static_cast<std::size_t>(cursor_ - chunk_begin_);
  }
  bool empty() const { return size() == 0; }

  // Replays entries above `mark` in reverse order, restoring each location
  // to its logged old value, then truncates the log to `mark`.
  //
  // Nested writes to the same location are handled naturally by reverse
  // replay: the oldest entry is replayed last and wins.
  // NO_YIELD: rollback replay runs inside the engine's undo-then-release
  // forbidden region (§3.1.2).  Truncation recycles chunks to the pool
  // instead of freeing or allocating.
  RVK_NO_YIELD void rollback_to(std::size_t mark);

  // Discards every entry: the outermost frame committed, so all speculative
  // stores are now permanent.  Retired chunks (beyond the active one) go
  // back to the per-thread pool.
  RVK_NO_YIELD void discard_all();

  // Entry addresses are stable across growth (chunks never move), so the
  // returned reference stays valid until the entry is truncated away.
  const Entry& entry(std::size_t i) const {
    RVK_DCHECK(i < size());
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  // Visits entries (mark, size()] newest-first — the replay order a rollback
  // of a frame with watermark `mark` would use.  Consumers (engine trace,
  // diagnostics) iterate segments without copying.
  template <typename F>
  void for_each_above_reverse(std::size_t mark, F&& f) const {
    for (std::size_t i = size(); i > mark; --i) f(entry(i - 1));
  }

  // Returns every chunk to the per-thread pool and resets the cursor, as if
  // freshly constructed.  The scheduler calls this when a thread finishes; a
  // finished thread has no open frame, so the log must be empty (checked).
  void release_storage();

  // Allocated entry slots across all chunks (diagnostics).
  std::size_t capacity() const { return chunks_.size() << kChunkShift; }

  // Counts entries of `kind` in [from, end) — used by tests asserting which
  // store kinds a workload logged.
  std::size_t count_kind(EntryKind kind, std::size_t from = 0) const;

 private:
  // Cold path of record(): opens the next chunk (pool, then allocator).
  RVK_MAY_ALLOC void next_chunk();

  // Repositions the cursor at logical index `n` (≤ current size).
  RVK_NO_YIELD void set_position(std::size_t n);

  // Returns chunks holding no live entries (index > active_) to the pool.
  // Only called from truncation paths, never from record().
  RVK_NO_YIELD void release_retired_chunks();

  // Returns every chunk to the pool and forgets the cursor.
  void return_chunks();

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  Entry* cursor_ = nullptr;       // next append slot within the active chunk
  Entry* chunk_begin_ = nullptr;  // active chunk bounds (nullptr: no chunk)
  Entry* chunk_end_ = nullptr;
  std::size_t active_ = 0;        // index of the active chunk
};

}  // namespace rvk::log
