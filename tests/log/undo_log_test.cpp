// UndoLog: the sequential buffer of §3.1.2 and its reverse replay.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "log/undo_log.hpp"

namespace rvk::log {
namespace {

TEST(UndoLogTest, StartsEmpty) {
  UndoLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.watermark(), 0u);
}

TEST(UndoLogTest, RecordAndRollbackSingleEntry) {
  UndoLog log;
  Word slot = 10;
  log.record(EntryKind::kObjectField, &slot, slot, nullptr, 0);
  slot = 99;
  log.rollback_to(0);
  EXPECT_EQ(slot, 10u);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, ReverseReplayRestoresOldestValue) {
  // Multiple writes to the same location: the oldest logged value must win
  // (it is replayed last).
  UndoLog log;
  Word slot = 1;
  log.record(EntryKind::kObjectField, &slot, slot, nullptr, 0);
  slot = 2;
  log.record(EntryKind::kObjectField, &slot, slot, nullptr, 0);
  slot = 3;
  log.record(EntryKind::kObjectField, &slot, slot, nullptr, 0);
  slot = 4;
  log.rollback_to(0);
  EXPECT_EQ(slot, 1u);
}

TEST(UndoLogTest, WatermarkRollbackIsPartial) {
  // Nested frames: inner frame's rollback must not disturb outer entries.
  UndoLog log;
  Word a = 100, b = 200;
  log.record(EntryKind::kObjectField, &a, a, nullptr, 0);  // outer write
  a = 111;
  const std::size_t inner_mark = log.watermark();
  log.record(EntryKind::kObjectField, &b, b, nullptr, 1);  // inner write
  b = 222;
  log.rollback_to(inner_mark);
  EXPECT_EQ(b, 200u);   // inner undone
  EXPECT_EQ(a, 111u);   // outer intact
  EXPECT_EQ(log.size(), inner_mark);
  log.rollback_to(0);
  EXPECT_EQ(a, 100u);
}

TEST(UndoLogTest, NestedCommitLeavesEntriesForOuterRollback) {
  // An inner frame that *commits* leaves its entries speculative; a later
  // rollback of the outer frame undoes them too.
  UndoLog log;
  Word a = 1, b = 2;
  log.record(EntryKind::kObjectField, &a, a, nullptr, 0);
  a = 10;
  // inner frame: record, then "commit" = do nothing to the log
  log.record(EntryKind::kObjectField, &b, b, nullptr, 0);
  b = 20;
  // outer rollback
  log.rollback_to(0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST(UndoLogTest, DiscardAllCommits) {
  UndoLog log;
  Word slot = 5;
  log.record(EntryKind::kObjectField, &slot, slot, nullptr, 0);
  slot = 6;
  log.discard_all();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(slot, 6u);  // value untouched
}

TEST(UndoLogTest, EntriesCarryPaperTriple) {
  // §3.1.2: object/array stores record (reference, offset, old value);
  // static stores record (offset, old value).
  UndoLog log;
  Word field = 7;
  int dummy_object;
  log.record(EntryKind::kObjectField, &field, field, &dummy_object, 3);
  const Entry& e = log.entry(0);
  EXPECT_EQ(e.base, &dummy_object);
  EXPECT_EQ(e.offset, 3u);
  EXPECT_EQ(e.old_value, 7u);
  EXPECT_EQ(e.kind, EntryKind::kObjectField);
}

TEST(UndoLogTest, CountKind) {
  UndoLog log;
  Word s = 0;
  log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  log.record(EntryKind::kArrayElement, &s, 0, nullptr, 0);
  log.record(EntryKind::kArrayElement, &s, 0, nullptr, 0);
  log.record(EntryKind::kStaticField, &s, 0, nullptr, 0);
  EXPECT_EQ(log.count_kind(EntryKind::kObjectField), 1u);
  EXPECT_EQ(log.count_kind(EntryKind::kArrayElement), 2u);
  EXPECT_EQ(log.count_kind(EntryKind::kStaticField), 1u);
  EXPECT_EQ(log.count_kind(EntryKind::kVolatileSlot), 0u);
  EXPECT_EQ(log.count_kind(EntryKind::kArrayElement, 2), 1u);
}

TEST(UndoLogTest, GrowsBeyondInitialCapacity) {
  UndoLog log(4);
  std::array<Word, 1000> slots{};
  for (std::size_t i = 0; i < slots.size(); ++i) {
    log.record(EntryKind::kArrayElement, &slots[i], i, nullptr,
               static_cast<std::uint32_t>(i));
    slots[i] = 12345;
  }
  EXPECT_EQ(log.size(), 1000u);
  log.rollback_to(0);
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], i);
}

// ---- Chunked-arena behaviour (DESIGN.md §8) ----

TEST(UndoLogTest, EntryAddressesStableAcrossGrowth) {
  // The arena contract heap/ and core/ rely on: a reference taken from
  // entry() must survive arbitrary later appends (growth opens new chunks,
  // never copies old ones).
  UndoLog log(4);  // reserve almost nothing up front
  Word s = 0;
  log.record(EntryKind::kObjectField, &s, 42, nullptr, 7);
  const Entry* first = &log.entry(0);
  for (std::size_t i = 0; i < 3 * UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kArrayElement, &s, i, nullptr, 0);
  }
  EXPECT_EQ(first, &log.entry(0));
  EXPECT_EQ(first->old_value, 42u);
  EXPECT_EQ(first->offset, 7u);
}

TEST(UndoLogTest, RollbackAcrossChunkBoundary) {
  UndoLog log;
  const std::size_t n = UndoLog::kChunkEntries + 100;
  std::vector<Word> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = i;
    log.record(EntryKind::kArrayElement, &slots[i], slots[i], nullptr,
               static_cast<std::uint32_t>(i));
    slots[i] = 0;
  }
  EXPECT_EQ(log.size(), n);
  log.rollback_to(0);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(slots[i], i);
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, WatermarkAtExactChunkBoundary) {
  // A frame whose watermark lands exactly on a chunk edge: the partial
  // rollback must stop on the edge, and appends must resume growing from it.
  UndoLog log;
  std::vector<Word> slots(UndoLog::kChunkEntries + 50);
  for (std::size_t i = 0; i < UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kObjectField, &slots[i], 1, nullptr, 0);
    slots[i] = 9;
  }
  const std::size_t mark = log.watermark();
  ASSERT_EQ(mark, UndoLog::kChunkEntries);
  for (std::size_t i = 0; i < 50; ++i) {
    log.record(EntryKind::kObjectField, &slots[mark + i], 2, nullptr, 0);
    slots[mark + i] = 9;
  }
  log.rollback_to(mark);
  EXPECT_EQ(log.size(), mark);
  EXPECT_EQ(slots[mark], 2u);      // inner frame undone
  EXPECT_EQ(slots[mark - 1], 9u);  // outer frame untouched
  // The log must keep working past the boundary cursor.
  log.record(EntryKind::kObjectField, &slots[mark], slots[mark], nullptr, 0);
  EXPECT_EQ(log.size(), mark + 1);
  EXPECT_EQ(log.entry(mark).old_value, 2u);
}

TEST(UndoLogTest, ChunksReleasedToPoolAcrossCommit) {
  // discard_all() parks retired chunks on the per-thread pool (keeping the
  // active one): a steady-state section sized like the previous one never
  // touches the allocator — its chunks come back from the pool.
  UndoLog log(4);
  Word s = 0;
  for (std::size_t i = 0; i < 2 * UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  }
  const std::size_t cap = log.capacity();
  EXPECT_GE(cap, 2 * UndoLog::kChunkEntries);
  const std::size_t pooled_before = detail::pooled_chunk_count();
  log.discard_all();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.capacity(), UndoLog::kChunkEntries);  // active chunk kept
  EXPECT_GT(detail::pooled_chunk_count(), pooled_before);
  const std::size_t pooled_full = detail::pooled_chunk_count();
  for (std::size_t i = 0; i < 2 * UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  }
  EXPECT_EQ(log.capacity(), cap);  // regrown from the pool
  EXPECT_LT(detail::pooled_chunk_count(), pooled_full);
}

TEST(UndoLogTest, DestructorReturnsChunksToPool) {
  const std::size_t pooled_before = detail::pooled_chunk_count();
  {
    UndoLog log(4);
    Word s = 0;
    for (std::size_t i = 0; i < UndoLog::kChunkEntries + 1; ++i) {
      log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
    }
    log.discard_all();  // still holds the active chunk
  }
  EXPECT_GE(detail::pooled_chunk_count(), pooled_before + 1);
}

TEST(UndoLogTest, ReleaseStorageReturnsChunks) {
  // What the scheduler does when a thread finishes: every chunk goes back
  // to the pool and the log is as good as new.
  UndoLog log(4);
  Word s = 0;
  for (std::size_t i = 0; i < UndoLog::kChunkEntries + 1; ++i) {
    log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  }
  log.discard_all();
  const std::size_t pooled_before = detail::pooled_chunk_count();
  log.release_storage();
  EXPECT_EQ(log.capacity(), 0u);
  EXPECT_TRUE(log.empty());
  EXPECT_GE(detail::pooled_chunk_count(), pooled_before + 1);
  // Reusable afterwards, from the pool rather than the allocator.
  const std::uint64_t allocated = detail::allocated_chunk_count();
  s = 5;
  log.record(EntryKind::kObjectField, &s, s, nullptr, 0);
  s = 6;
  log.rollback_to(0);
  EXPECT_EQ(s, 5u);
  EXPECT_EQ(detail::allocated_chunk_count(), allocated);
}

TEST(UndoLogTest, ReleaseStorageOfNonEmptyLogFailsCheck) {
  // A finished thread has no open frame; live entries at release would be
  // speculative stores nobody can roll back any more.
  UndoLog log;
  Word s = 0;
  log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  EXPECT_DEATH(log.release_storage(), "non-empty undo log");
}

TEST(UndoLogTest, RollbackReleasesRetiredChunks) {
  UndoLog log(4);
  Word s = 0;
  for (std::size_t i = 0; i < 3 * UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  }
  EXPECT_GE(log.capacity(), 3 * UndoLog::kChunkEntries);
  log.rollback_to(1);  // keeps one live entry in chunk 0
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.capacity(), UndoLog::kChunkEntries);
  // The log keeps working past the trim: refill across the boundary.
  for (std::size_t i = 0; i < UndoLog::kChunkEntries; ++i) {
    log.record(EntryKind::kObjectField, &s, 0, nullptr, 0);
  }
  EXPECT_EQ(log.size(), UndoLog::kChunkEntries + 1);
  EXPECT_EQ(log.entry(UndoLog::kChunkEntries).old_value, 0u);
}

TEST(UndoLogTest, ForEachAboveReverseVisitsNewestFirst) {
  UndoLog log;
  Word s = 0;
  for (Word v = 0; v < 5; ++v) {
    log.record(EntryKind::kObjectField, &s, v, nullptr, 0);
  }
  std::vector<Word> seen;
  log.for_each_above_reverse(2, [&](const Entry& e) {
    seen.push_back(e.old_value);
  });
  EXPECT_EQ(seen, (std::vector<Word>{4, 3, 2}));
}

TEST(UndoLogTest, RollbackToCurrentWatermarkIsNoop) {
  UndoLog log;
  Word s = 1;
  log.record(EntryKind::kObjectField, &s, s, nullptr, 0);
  s = 2;
  log.rollback_to(log.watermark());
  EXPECT_EQ(s, 2u);
  EXPECT_EQ(log.size(), 1u);
}

}  // namespace
}  // namespace rvk::log
