// ThinLock: Jikes-style lock word with inflation.
#include <gtest/gtest.h>

#include <vector>

#include "common/names.hpp"
#include "monitor/thin_lock.hpp"
#include "rt/scheduler.hpp"

namespace rvk::monitor {
namespace {

TEST(ThinLockTest, UncontendedStaysThin) {
  rt::Scheduler s;
  ThinLock lock("l");
  s.spawn("t", rt::kNormPriority, [&] {
    for (int i = 0; i < 100; ++i) {
      lock.acquire();
      EXPECT_TRUE(lock.held_by_current());
      lock.release();
    }
  });
  s.run();
  EXPECT_FALSE(lock.inflated());
  EXPECT_EQ(lock.stats().thin_acquires, 100u);
  EXPECT_EQ(lock.stats().heavy_acquires, 0u);
  EXPECT_EQ(lock.word_count(), 0u);
}

TEST(ThinLockTest, RecursionInLockWord) {
  rt::Scheduler s;
  ThinLock lock("l");
  s.spawn("t", rt::kNormPriority, [&] {
    lock.acquire();
    lock.acquire();
    lock.acquire();
    EXPECT_EQ(lock.word_count(), 3u);
    EXPECT_EQ(lock.word_owner_id(), s.current_thread()->id());
    lock.release();
    EXPECT_EQ(lock.word_count(), 2u);
    lock.release();
    lock.release();
    EXPECT_EQ(lock.word_count(), 0u);
  });
  s.run();
  EXPECT_FALSE(lock.inflated());
}

TEST(ThinLockTest, ContentionInflates) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 10;
  rt::Scheduler s(cfg);
  ThinLock lock("l");
  std::vector<int> order;
  s.spawn("holder", rt::kNormPriority, [&] {
    lock.acquire();
    for (int i = 0; i < 100; ++i) s.yield_point();
    order.push_back(1);
    lock.release();
  });
  s.spawn("contender", rt::kNormPriority, [&] {
    lock.acquire();  // finds the thin lock held → inflates, blocks
    order.push_back(2);
    lock.release();
  });
  s.run();
  // The contender's final release found the monitor quiescent and deflated
  // it back to a (biased) word — inflation tracks contention, not history.
  EXPECT_FALSE(lock.inflated());
  EXPECT_EQ(lock.stats().inflation_by_contention, 1u);
  EXPECT_EQ(lock.stats().deflations, 1u);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // mutual exclusion held across inflation
  EXPECT_EQ(order[1], 2);
}

TEST(ThinLockTest, InflationPreservesRecursion) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 10;
  rt::Scheduler s(cfg);
  ThinLock lock("l");
  bool contender_done = false;
  s.spawn("holder", rt::kNormPriority, [&] {
    lock.acquire();
    lock.acquire();  // thin recursion 2
    for (int i = 0; i < 60; ++i) s.yield_point();  // contender inflates here
    EXPECT_TRUE(lock.inflated());
    EXPECT_TRUE(lock.held_by_current());
    lock.release();  // heavy recursion 2 → 1
    EXPECT_FALSE(contender_done);  // still held
    for (int i = 0; i < 30; ++i) s.yield_point();
    lock.release();  // fully released → contender proceeds
  });
  s.spawn("contender", rt::kNormPriority, [&] {
    lock.acquire();
    contender_done = true;
    lock.release();
  });
  s.run();
  EXPECT_TRUE(contender_done);
}

TEST(ThinLockTest, CountOverflowInflates) {
  rt::Scheduler s;
  ThinLock lock("l");
  s.spawn("t", rt::kNormPriority, [&] {
    for (int i = 0; i < 256; ++i) lock.acquire();  // 255 thin + 1 overflow
    EXPECT_TRUE(lock.inflated());
    EXPECT_TRUE(lock.held_by_current());
    for (int i = 0; i < 256; ++i) lock.release();
    EXPECT_FALSE(lock.held_by_current());
  });
  s.run();
  EXPECT_EQ(lock.stats().inflation_by_overflow, 1u);
}

TEST(ThinLockTest, HeavyAccessorInflatesForWait) {
  // Object.wait() needs the full monitor even without contention.
  rt::Scheduler s;
  ThinLock lock("l");
  bool woken = false;
  s.spawn("waiter", rt::kNormPriority, [&] {
    lock.acquire();
    lock.heavy().wait();  // inflates while held by us
    woken = true;
    lock.release();
  });
  s.spawn("notifier", rt::kNormPriority, [&] {
    s.sleep_for(50);
    lock.acquire();
    lock.heavy().notify_one();
    lock.release();
  });
  s.run();
  EXPECT_TRUE(woken);
  EXPECT_EQ(lock.stats().inflation_by_wait, 1u);
  // Once the woken waiter releases, nobody needs the fat monitor: deflated.
  EXPECT_FALSE(lock.inflated());
  EXPECT_EQ(lock.stats().deflations, 1u);
}

TEST(ThinLockTest, ManyThreadsMutualExclusion) {
  rt::SchedulerConfig cfg;
  cfg.quantum = 7;
  rt::Scheduler s(cfg);
  ThinLock lock("l");
  int inside = 0, max_inside = 0, total = 0;
  for (int t = 0; t < 5; ++t) {
    s.spawn(indexed_name("t", t), rt::kNormPriority, [&] {
      for (int i = 0; i < 20; ++i) {
        ThinLockGuard g(lock);
        max_inside = std::max(max_inside, ++inside);
        for (int k = 0; k < 5; ++k) s.yield_point();
        --inside;
        ++total;
      }
    });
  }
  s.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(total, 100);
}

}  // namespace
}  // namespace rvk::monitor
