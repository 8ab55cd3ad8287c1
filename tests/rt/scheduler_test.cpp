// Scheduler: quasi-preemptive round-robin semantics (Jikes RVM model).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "rt/scheduler.hpp"

namespace rvk::rt {
namespace {

TEST(SchedulerTest, RunsSingleThreadToCompletion) {
  Scheduler s;
  bool ran = false;
  s.spawn("t", kNormPriority, [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(s.stalled());
  EXPECT_EQ(s.live_count(), 0u);
}

TEST(SchedulerTest, RoundRobinRotatesAtQuantumExpiry) {
  SchedulerConfig cfg;
  cfg.quantum = 10;
  Scheduler s(cfg);
  std::vector<int> order;
  s.spawn("a", kNormPriority, [&] {
    for (int i = 0; i < 25; ++i) s.yield_point();
    order.push_back(1);
  });
  s.spawn("b", kNormPriority, [&] {
    for (int i = 0; i < 5; ++i) s.yield_point();
    order.push_back(2);
  });
  s.run();
  // b needs only 5 yield points (half a quantum); a burns 25 (three slices).
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(SchedulerTest, RoundRobinIgnoresPriorityByDefault) {
  // Paper §4: "The Jikes RVM does not include a priority scheduler; threads
  // are scheduled in a round-robin fashion."
  SchedulerConfig cfg;
  cfg.quantum = 5;
  Scheduler s(cfg);
  std::vector<char> order;
  s.spawn("lo", 1, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('l');
  });
  s.spawn("hi", 10, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('h');
  });
  s.run();
  // Equal work → finish in spawn order despite the priority gap.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'l');
  EXPECT_EQ(order[1], 'h');
}

TEST(SchedulerTest, StrictPriorityModeRunsHighFirst) {
  SchedulerConfig cfg;
  cfg.quantum = 5;
  cfg.strict_priority = true;
  Scheduler s(cfg);
  std::vector<char> order;
  s.spawn("lo", 1, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('l');
  });
  s.spawn("hi", 10, [&] {
    for (int i = 0; i < 12; ++i) s.yield_point();
    order.push_back('h');
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h');
  EXPECT_EQ(order[1], 'l');
}

TEST(SchedulerTest, VirtualClockCountsYieldPoints) {
  Scheduler s;
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 42; ++i) s.yield_point();
  });
  s.run();
  EXPECT_EQ(s.now(), 42u);
}

TEST(SchedulerTest, SleepWakesAtDeadline) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(500);
    woke_at = s.now();
  });
  s.run();
  EXPECT_GE(woke_at, 500u);
}

TEST(SchedulerTest, IdleClockFastForwardsToNextSleeper) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(100000);
    woke_at = s.now();
  });
  s.run();
  // No other thread generates ticks, so the clock must have jumped.
  EXPECT_GE(woke_at, 100000u);
  EXPECT_LT(s.now(), 100100u);
}

TEST(SchedulerTest, SleepersWakeInDeadlineOrder) {
  Scheduler s;
  std::vector<int> order;
  s.spawn("late", kNormPriority, [&] {
    s.sleep_for(2000);
    order.push_back(2);
  });
  s.spawn("early", kNormPriority, [&] {
    s.sleep_for(1000);
    order.push_back(1);
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SchedulerTest, JoinBlocksUntilTargetFinishes) {
  Scheduler s;
  std::vector<int> order;
  VThread* worker = s.spawn("worker", kNormPriority, [&] {
    for (int i = 0; i < 300; ++i) s.yield_point();
    order.push_back(1);
  });
  s.spawn("joiner", kNormPriority, [&] {
    s.join(worker);
    order.push_back(2);
  });
  s.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(SchedulerTest, JoinAlreadyFinishedThreadReturnsImmediately) {
  Scheduler s;
  VThread* worker = s.spawn("worker", kNormPriority, [] {});
  bool joined = false;
  s.spawn("joiner", kNormPriority, [&] {
    for (int i = 0; i < 50; ++i) s.yield_point();
    s.join(worker);
    joined = true;
  });
  s.run();
  EXPECT_TRUE(joined);
}

TEST(SchedulerTest, BlockAndWakeViaWaitQueue) {
  Scheduler s;
  WaitQueue q;
  std::vector<int> order;
  s.spawn("blocker", kNormPriority, [&] {
    order.push_back(1);
    s.block_current_on(q);
    order.push_back(3);
  });
  s.spawn("waker", kNormPriority, [&] {
    order.push_back(2);
    VThread* w = s.wake_best(q);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "blocker");
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 3);
}

TEST(SchedulerTest, InterruptYanksBlockedThread) {
  Scheduler s;
  WaitQueue q;
  bool was_interrupted = false;
  VThread* blocker = s.spawn("blocker", kNormPriority, [&] {
    s.block_current_on(q);
    was_interrupted = s.current_thread()->interrupted;
  });
  s.spawn("interrupter", kNormPriority, [&] { s.interrupt(blocker); });
  s.run();
  EXPECT_TRUE(was_interrupted);
  EXPECT_TRUE(q.empty());
}

TEST(SchedulerTest, InterruptCancelsSleep) {
  Scheduler s;
  std::uint64_t woke_at = 0;
  VThread* sleeper = s.spawn("sleeper", kNormPriority, [&] {
    s.sleep_for(1000000);
    woke_at = s.now();
  });
  s.spawn("interrupter", kNormPriority, [&] { s.interrupt(sleeper); });
  s.run();
  EXPECT_LT(woke_at, 1000000u);
}

TEST(SchedulerTest, StallReturnsWhenConfigured) {
  SchedulerConfig cfg;
  cfg.on_stall = SchedulerConfig::OnStall::kReturn;
  Scheduler s(cfg);
  WaitQueue q;
  s.spawn("stuck", kNormPriority, [&] { s.block_current_on(q); });
  s.run();
  EXPECT_TRUE(s.stalled());
  EXPECT_EQ(s.live_count(), 1u);
}

TEST(SchedulerTest, StallHookCanRescue) {
  SchedulerConfig cfg;
  cfg.on_stall = SchedulerConfig::OnStall::kReturn;
  Scheduler s(cfg);
  WaitQueue q;
  bool finished = false;
  s.spawn("stuck", kNormPriority, [&] {
    s.block_current_on(q);
    finished = true;
  });
  s.set_stall_hook([&] { return s.wake_best(q) != nullptr; });
  s.run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(s.stalled());
}

TEST(SchedulerTest, UncaughtExceptionRethrownFromRun) {
  Scheduler s;
  s.spawn("thrower", kNormPriority,
          [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(SchedulerTest, ExceptionsInsideGreenThreadsAreContained) {
  Scheduler s;
  bool caught = false;
  s.spawn("catcher", kNormPriority, [&] {
    try {
      throw std::logic_error("local");
    } catch (const std::logic_error&) {
      caught = true;
    }
  });
  s.run();
  EXPECT_TRUE(caught);
}

TEST(SchedulerTest, SpawnFromGreenThread) {
  Scheduler s;
  std::vector<int> order;
  s.spawn("parent", kNormPriority, [&] {
    order.push_back(1);
    s.spawn("child", kNormPriority, [&] { order.push_back(2); });
    for (int i = 0; i < 200; ++i) s.yield_point();
    order.push_back(3);
  });
  s.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 2);  // child ran during parent's yield loop
}

TEST(SchedulerTest, BackgroundHookFiresPeriodically) {
  SchedulerConfig cfg;
  cfg.quantum = 5;
  cfg.background_period = 3;
  Scheduler s(cfg);
  int fired = 0;
  s.set_background_hook([&] { ++fired; });
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 100; ++i) s.yield_point();
  });
  s.run();
  EXPECT_GE(fired, 5);
}

TEST(SchedulerTest, ThreadStatsAreCounted) {
  SchedulerConfig cfg;
  cfg.quantum = 10;
  Scheduler s(cfg);
  s.spawn("t", kNormPriority, [&] {
    for (int i = 0; i < 35; ++i) s.yield_point();
  });
  s.run();
  // Threads keep no counters; the shard's totals count for them.
  EXPECT_EQ(s.now(), 35u);        // one tick per yield point
  EXPECT_GE(s.dispatches(), 4u);  // 35 yield points / quantum 10
}

TEST(SchedulerTest, CurrentVThreadAccessors) {
  Scheduler s;
  EXPECT_EQ(current_vthread(), nullptr);  // outside run()
  VThread* seen = nullptr;
  s.spawn("t", kNormPriority, [&] { seen = current_vthread(); });
  s.run();
  ASSERT_NE(seen, nullptr);
  EXPECT_EQ(seen->name(), "t");
  EXPECT_EQ(current_vthread(), nullptr);  // cleared after run()
}

TEST(SchedulerTest, FinishedThreadStacksAreReclaimed) {
  // Open-loop drivers inject far more threads than are ever live at once;
  // each finished fiber must give its stack back at dispatch, and later
  // spawns must reuse it, so memory is O(live threads), not O(total
  // spawned).
  Scheduler s;
  constexpr int kThreads = 50;
  for (int i = 0; i < kThreads; ++i) {
    s.spawn(indexed_name("t", i), kNormPriority, [&] {
      for (int j = 0; j < 3; ++j) s.yield_point();
    });
  }
  EXPECT_EQ(s.stacks_reclaimed(), 0u);
  EXPECT_EQ(s.stacks_mapped(), kThreads);  // all live at once: all fresh
  s.run();
  EXPECT_EQ(s.stacks_reclaimed(), kThreads);
  // Spawning from inside a green thread reclaims too — and both threads run
  // on recycled stacks.
  s.spawn("parent", kNormPriority, [&] {
    s.spawn("child", kNormPriority, [] {});
    s.yield_point();
  });
  s.run();
  EXPECT_EQ(s.stacks_reclaimed(), kThreads + 2u);
  EXPECT_EQ(s.stacks_mapped(), kThreads);
}

TEST(SchedulerTest, SpawnAfterFinishRunsOnRecycledStack) {
  SchedulerConfig cfg;
  cfg.stack_size = 64 * 1024;
  Scheduler s(cfg);
  // A local near the top of each fiber's stack: two threads on the same
  // mapping put it within a few frames of each other, two on different
  // mappings at least a whole stack (plus guard page) apart.
  auto frame_address = [] {
    volatile char probe = 0;
    return reinterpret_cast<std::uintptr_t>(&probe);
  };
  // The recycled stack is fully usable: touch half of it.
  auto touch_stack = [] {
    volatile char buf[32 * 1024];
    for (std::size_t i = 0; i < sizeof(buf); i += 4096) buf[i] = 1;
  };
  std::uintptr_t first = 0, second = 0;
  VThread* a = s.spawn("a", kNormPriority, [&] { first = frame_address(); });
  s.run();
  ASSERT_TRUE(a->finished());
  s.spawn("b", kNormPriority, [&] {
    second = frame_address();
    touch_stack();
    s.yield_point();
  });
  s.run();
  EXPECT_EQ(s.stacks_mapped(), 1u);
  EXPECT_EQ(s.stacks_reclaimed(), 2u);
  const std::uintptr_t apart = first > second ? first - second : second - first;
  EXPECT_LT(apart, cfg.stack_size / 2);
}

TEST(SchedulerTest, FinishReleasesLogStorage) {
  Scheduler s;
  log::Word slot = 0;
  VThread* t = s.spawn("t", kNormPriority, [&] {
    VThread* self = s.current_thread();
    self->undo_log.record(log::EntryKind::kObjectField, &slot, 0, nullptr, 0);
    self->undo_log.discard_all();
    EXPECT_TRUE(self->dedup.should_log(&slot, 1));
    EXPECT_GT(self->undo_log.capacity(), 0u);
    EXPECT_GT(self->dedup.capacity(), 0u);
  });
  EXPECT_EQ(t->dedup.capacity(), 0u);  // allocated on first use, not spawn
  s.run();
  EXPECT_EQ(t->undo_log.capacity(), 0u);
  EXPECT_EQ(t->dedup.capacity(), 0u);
  // The chunk went back to this OS thread's pool: the next thread logs
  // into it without touching the allocator.
  const std::uint64_t allocated = log::detail::allocated_chunk_count();
  s.spawn("u", kNormPriority, [&] {
    s.current_thread()->undo_log.record(log::EntryKind::kObjectField, &slot,
                                        0, nullptr, 0);
    s.current_thread()->undo_log.discard_all();
  });
  s.run();
  EXPECT_EQ(log::detail::allocated_chunk_count(), allocated);
}

TEST(SchedulerTest, RunAgainAfterAddingThreads) {
  Scheduler s;
  int runs = 0;
  s.spawn("first", kNormPriority, [&] { ++runs; });
  s.run();
  s.spawn("second", kNormPriority, [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 2);
}

}  // namespace
}  // namespace rvk::rt
