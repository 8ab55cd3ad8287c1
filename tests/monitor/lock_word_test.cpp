// Compact lock words + the MonitorTable side table (DESIGN.md §13):
// encoding round-trips, inflation/deflation edges, generation staleness,
// slot reuse, and the quiescence predicate's refusal cases.
//
// The table under test is the PROCESS-WIDE MonitorTable::global() — other
// suites in this binary touch it too, so every stats assertion here is a
// delta against a snapshot taken at test start.
#include <gtest/gtest.h>

#include <sstream>

#include "common/names.hpp"
#include "monitor/lock_word.hpp"
#include "monitor/monitor_table.hpp"
#include "monitor/thin_lock.hpp"
#include "obs/metrics.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

TEST(LockWordTest, DefaultIsFree) {
  LockWord w;
  EXPECT_TRUE(w.is_free());
  EXPECT_FALSE(w.is_thin());
  EXPECT_FALSE(w.is_biased());
  EXPECT_FALSE(w.is_inflated());
  EXPECT_EQ(w.raw(), 0u);
}

TEST(LockWordTest, ThinEncodingRoundTrips) {
  LockWord w = LockWord::thin(7, 3);
  EXPECT_TRUE(w.is_thin());
  EXPECT_FALSE(w.is_free());
  EXPECT_FALSE(w.is_biased());
  EXPECT_FALSE(w.is_inflated());
  EXPECT_EQ(w.owner_id(), 7u);
  EXPECT_EQ(w.count(), 3u);

  // The full ranges: max owner id and the recursion ceiling.
  LockWord deep = LockWord::thin(LockWord::kMaxOwner, LockWord::kMaxCount);
  EXPECT_TRUE(deep.is_thin());
  EXPECT_EQ(deep.owner_id(), LockWord::kMaxOwner);
  EXPECT_EQ(deep.count(), LockWord::kMaxCount);

  EXPECT_TRUE(LockWord::fits_owner(LockWord::kMaxOwner));
  EXPECT_FALSE(LockWord::fits_owner(LockWord::kMaxOwner + 1));
}

TEST(LockWordTest, BiasedEncodingRoundTrips) {
  LockWord w = LockWord::biased(9);
  EXPECT_TRUE(w.is_biased());
  EXPECT_FALSE(w.is_free());
  EXPECT_FALSE(w.is_thin());
  EXPECT_FALSE(w.is_inflated());
  EXPECT_EQ(w.owner_id(), 9u);
  EXPECT_EQ(w.count(), 0u);
  // The fold that makes the fast path one load + one compare.
  EXPECT_TRUE(w == LockWord::biased(9));
  EXPECT_FALSE(w == LockWord::biased(10));
  EXPECT_FALSE(w == LockWord::thin(9, 1));
}

TEST(LockWordTest, InflatedEncodingRoundTrips) {
  LockWord w = LockWord::inflated(42, 9);
  EXPECT_TRUE(w.is_inflated());
  EXPECT_FALSE(w.is_free());
  EXPECT_FALSE(w.is_thin());
  EXPECT_FALSE(w.is_biased());
  EXPECT_EQ(w.index(), 42u);
  EXPECT_EQ(w.generation(), 9u);

  LockWord last =
      LockWord::inflated(LockWord::kMaxIndex, LockWord::kMaxGeneration);
  EXPECT_EQ(last.index(), LockWord::kMaxIndex);
  EXPECT_EQ(last.generation(), LockWord::kMaxGeneration);
}

// ---- Table behaviour ----

TEST(MonitorTableTest, InflateFreeWordBuildsUnownedMonitor) {
  MonitorTable& table = MonitorTable::global();
  const MonitorTableStats before = table.stats();
  LockWord word;
  MonitorBase& m =
      table.inflate(word, "t", InflationCause::kWait);
  EXPECT_TRUE(word.is_inflated());
  EXPECT_EQ(table.monitor_at(word), &m);
  EXPECT_EQ(m.owner(), nullptr);  // free word inflates unowned
  EXPECT_EQ(table.stats().inflations, before.inflations + 1);
  EXPECT_EQ(table.stats().inflation_by_wait, before.inflation_by_wait + 1);
  table.release_slot(word);
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, InflateAdoptsThinOwnershipAndRecursion) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  s.spawn("t", rt::kNormPriority, [&] {
    LockWord word = LockWord::thin(s.current_thread()->id(), 3);
    MonitorBase& m = table.inflate(word, "t", InflationCause::kOverflow);
    EXPECT_TRUE(m.held_by_current());
    m.release();
    m.release();
    EXPECT_TRUE(m.held_by_current());  // recursion 3 carried over
    m.release();
    EXPECT_FALSE(m.held_by_current());
    table.release_slot(word);
  });
  s.run();
}

TEST(MonitorTableTest, StaleWordReadsAsFree) {
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "t", InflationCause::kWait);
  const LockWord stale = word;  // survives the slot
  table.release_slot(word);
  EXPECT_TRUE(stale.is_inflated());             // the bits still say inflated
  EXPECT_EQ(table.monitor_at(stale), nullptr);  // but the generation moved on
  LockWord gone = stale;
  table.release_slot(gone);  // releasing a stale word is a harmless no-op
  EXPECT_TRUE(gone.is_free());
}

TEST(MonitorTableTest, DeflationRefusedWhileOwnedOrContended) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 10;
  rt::Scheduler s(cfg);
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  bool owner_checked = false, contender_checked = false;
  s.spawn("owner", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", InflationCause::kContention);
    m.acquire();
    EXPECT_FALSE(table.try_deflate(word));  // owned → not quiescent
    owner_checked = true;
    for (int i = 0; i < 50; ++i) s.yield_point();
    // The contender is queued (and in transit) by now: still refused.
    EXPECT_FALSE(table.try_deflate(word));
    contender_checked = true;
    m.release();
  });
  s.spawn("contender", rt::kNormPriority, [&] {
    MonitorBase* m = table.monitor_at(word);
    ASSERT_NE(m, nullptr);
    m->acquire();
    m->release();
  });
  s.run();
  EXPECT_TRUE(owner_checked);
  EXPECT_TRUE(contender_checked);
  // Everyone is gone: now it deflates.
  EXPECT_TRUE(table.try_deflate(word));
  EXPECT_TRUE(word.is_free());
}

TEST(MonitorTableTest, DeflationRefusedWhileWaiterParked) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  bool woken = false;
  s.spawn("waiter", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", InflationCause::kWait);
    m.acquire();
    m.wait();  // releases the monitor; sits in the wait set
    woken = true;
    m.release();
  });
  s.spawn("prober", rt::kNormPriority, [&] {
    s.sleep_for(20);
    // Unowned, empty entry queue — but the wait set is populated: refused.
    EXPECT_FALSE(table.try_deflate(word));
    MonitorBase* m = table.monitor_at(word);
    ASSERT_NE(m, nullptr);
    m->acquire();
    m->notify_one();
    m->release();
  });
  s.run();
  EXPECT_TRUE(woken);
  EXPECT_TRUE(table.try_deflate(word));
}

TEST(MonitorTableTest, ReleaseSlotDetachesBusySlotForLaterScavenge) {
  rt::Scheduler s;
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  s.spawn("t", rt::kNormPriority, [&] {
    MonitorBase& m = table.inflate(word, "t", InflationCause::kWait);
    m.acquire();
    const std::size_t live = table.live_slots();
    // The word's holder dies while the monitor is busy: quiesce-or-detach
    // keeps the slot alive (destroying it under an owner would be a UAF).
    table.release_slot(word);
    EXPECT_TRUE(word.is_free());
    EXPECT_EQ(table.live_slots(), live);  // detached, not destroyed
    EXPECT_EQ(table.scavenge(), 0u);      // still owned → still refused
    m.release();
    // Now quiescent: the sweep finds the detached slot and reclaims it.
    EXPECT_GE(table.scavenge(), 1u);
    EXPECT_EQ(table.live_slots(), live - 1);
  });
  s.run();
}

TEST(MonitorTableTest, ReinflationReusesScavengedSlot) {
  MonitorTable& table = MonitorTable::global();
  const MonitorTableStats before = table.stats();
  LockWord word;
  table.inflate(word, "t", InflationCause::kWait);
  const std::uint32_t first_index = word.index();
  const std::uint64_t first_gen = word.generation();
  ASSERT_TRUE(table.try_deflate(word));
  EXPECT_EQ(table.stats().deflations, before.deflations + 1);

  LockWord word2;
  table.inflate(word2, "t2", InflationCause::kWait);
  EXPECT_EQ(word2.index(), first_index);      // pooled: same slot returns
  EXPECT_NE(word2.generation(), first_gen);   // ...at a new generation
  EXPECT_EQ(table.stats().re_inflations, before.re_inflations + 1);
  table.release_slot(word2);
}

TEST(MonitorTableTest, GenerationCeilingRetiresTheSlot) {
  // Cycling ONE slot through its entire 12-bit generation budget must end
  // with the slot retired (never recycled), so a stale word can never
  // falsely match a re-tenanted slot — the invariant that keeps the narrow
  // generation field sound.
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "g", InflationCause::kWait);
  const std::uint32_t index = word.index();
  LockWord stale_first = word;  // generation 1 word, held across the cycles
  std::uint32_t cycles = 0;
  while (true) {
    ASSERT_TRUE(table.try_deflate(word));
    ++cycles;
    table.inflate(word, "g", InflationCause::kWait);
    if (word.index() != index) break;  // the slot retired; a fresh one opened
    ASSERT_LT(cycles, 2u * LockWord::kMaxGeneration);  // must terminate
    EXPECT_EQ(table.monitor_at(stale_first), nullptr);
  }
  // Earlier tests may have pre-aged the slot this test popped, so the exact
  // cycle count is "whatever was left of the budget" — only its bound is
  // deterministic.
  EXPECT_LE(cycles, LockWord::kMaxGeneration);
  EXPECT_EQ(table.monitor_at(stale_first), nullptr);  // retired forever
  table.release_slot(word);
}

TEST(MonitorTableTest, VetoBlocksDeflation) {
  MonitorTable& table = MonitorTable::global();
  int owner = 0;  // the veto's tag, standing in for an engine
  LockWord word;
  table.inflate(word, "t", InflationCause::kWait, {}, &owner);
  table.set_deflate_veto(&owner, [](const MonitorBase&) { return false; });
  EXPECT_FALSE(table.try_deflate(word));  // quiescent, but vetoed
  EXPECT_EQ(table.scavenge(&owner), 0u);
  table.scavenge();  // the whole-table sweep skips it too
  EXPECT_NE(table.monitor_at(word), nullptr);
  table.set_deflate_veto(&owner, {});
  EXPECT_TRUE(table.try_deflate(word));
}

TEST(MonitorTableTest, ThinLockChurnKeepsSlotCountFlat) {
  // 64 locks cycling inflate→deflate leave no live slots behind: monitor
  // memory tracks contention, not lock count.
  rt::SchedulerConfig cfg;
  cfg.quantum = 5;
  rt::Scheduler s(cfg);
  MonitorTable& table = MonitorTable::global();
  const std::size_t live_before = table.live_slots();
  std::vector<std::unique_ptr<ThinLock>> locks;
  for (int i = 0; i < 64; ++i) {
    locks.push_back(std::make_unique<ThinLock>(indexed_name("l", i)));
  }
  for (int t = 0; t < 4; ++t) {
    s.spawn(indexed_name("t", t), rt::kNormPriority, [&] {
      for (int round = 0; round < 3; ++round) {
        for (auto& l : locks) {
          ThinLockGuard g(*l);
          s.yield_point();
        }
      }
    });
  }
  s.run();
  std::uint64_t inflations = 0;
  for (auto& l : locks) inflations += l->stats().inflations;
  EXPECT_GT(inflations, 0u);  // contention did inflate some locks...
  locks.clear();
  table.scavenge();
  EXPECT_EQ(table.live_slots(), live_before);  // ...but none of it persists
}

TEST(MonitorTableTest, StatsPublishToRegistry) {
  MonitorTable& table = MonitorTable::global();
  LockWord word;
  table.inflate(word, "t", InflationCause::kWait);
  table.release_slot(word);

  obs::Registry reg;
  obs::publish(reg, table.stats());
  const obs::Registry::Entry* inf = reg.find("montable.inflations");
  ASSERT_NE(inf, nullptr);
  EXPECT_GE(inf->value, 1u);
  EXPECT_NE(reg.find("montable.deflations"), nullptr);
  EXPECT_NE(reg.find("montable.live_high_water"), nullptr);
}

}  // namespace
}  // namespace rvk::monitor
