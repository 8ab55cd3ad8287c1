// Biased section entry and lazy frame materialisation (DESIGN.md §11):
// grant/revoke/steal of the monitor bias, the points where a lazy frame
// must become a real one, and the escape hatches that disable the path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "analysis/hooks.hpp"
#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/scheduler.hpp"

namespace rvk::core {
namespace {

// The lazy-internals tests assert frames are NOT registered on the fast
// path; under RVK_ANALYZE=1 the analyzer's frame hook gates that path off
// (DESIGN.md §11), so those assertions are meaningless there.  Bias-grant
// parity under the analyzer is covered by
// tests/analysis/queue_churn_test.cpp instead.
#define RVK_SKIP_IF_ANALYZER()                                             \
  do {                                                                     \
    if (analysis::env_enabled())                                           \
      GTEST_SKIP() << "lazy path is gated off while the analyzer is live"; \
  } while (0)

struct Fixture {
  explicit Fixture(EngineConfig cfg = {}, rt::SchedulerConfig scfg = {})
      : sched(scfg), engine(sched, cfg) {}
  rt::Scheduler sched;
  Engine engine;
  heap::Heap heap;
};

TEST(BiasTest, RepeatAcquireByOwnerIsBiasGranted) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    for (int i = 0; i < 5; ++i) fx.engine.synchronized(*m, [] {});
  });
  fx.sched.run();
  // First acquire takes the ordinary path (nobody biased yet) and latches
  // the bias; the remaining four are fast-path grants.
  EXPECT_EQ(m->stats().acquires, 5u);
  EXPECT_EQ(m->stats().bias_grants, 4u);
  EXPECT_EQ(m->stats().bias_revocations, 0u);
  EXPECT_EQ(fx.engine.stats().sections_committed, 5u);
}

TEST(BiasTest, SecondThreadRevokesTheBias) {
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("a", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [] {});  // latches bias to a
    fx.engine.synchronized(*m, [] {});  // granted
  });
  fx.sched.spawn("b", rt::kNormPriority, [&] {
    fx.engine.synchronized(*m, [] {});  // foreign acquire: bias revoked
    fx.engine.synchronized(*m, [] {});  // re-latched to b, granted again
  });
  fx.sched.run();
  EXPECT_EQ(m->stats().bias_revocations, 1u);
  EXPECT_GE(m->stats().bias_grants, 2u);
}

TEST(BiasTest, LazyFrameMaterialisesAtFirstLoggedWrite) {
  RVK_SKIP_IF_ANALYZER();
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    fx.engine.synchronized(*m, [] {});  // latch bias
    fx.engine.synchronized(*m, [&] {
      // Biased entry: the section exists only in the lazy registers.
      EXPECT_TRUE(t->lazy_frame);
      EXPECT_EQ(fx.engine.find_sync(t)->frames.size(), 0u);
      o->set<int>(0, 7);  // first logged write forces a real frame
      EXPECT_FALSE(t->lazy_frame);
      ASSERT_EQ(fx.engine.find_sync(t)->frames.size(), 1u);
      EXPECT_EQ(fx.engine.find_sync(t)->frames.back().monitor, m);
      EXPECT_EQ(fx.engine.find_sync(t)->frames.back().id, t->current_frame_id);
      EXPECT_EQ(t->undo_log.size(), 1u);
    });
    EXPECT_TRUE(t->undo_log.empty());
  });
  fx.sched.run();
  EXPECT_EQ(o->get<int>(0), 7);
}

TEST(BiasTest, LazyFrameMaterialisesAtFirstYieldPoint) {
  RVK_SKIP_IF_ANALYZER();
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    fx.engine.synchronized(*m, [] {});
    fx.engine.synchronized(*m, [&] {
      EXPECT_TRUE(t->lazy_frame);
      fx.sched.yield_point();
      EXPECT_FALSE(t->lazy_frame);
      EXPECT_EQ(fx.engine.find_sync(t)->frames.size(), 1u);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().sections_committed, 2u);
}

TEST(BiasTest, NestedEntryMaterialisesTheOuterLazyFrame) {
  RVK_SKIP_IF_ANALYZER();
  Fixture fx;
  RevocableMonitor* outer = fx.engine.make_monitor("outer");
  RevocableMonitor* inner = fx.engine.make_monitor("inner");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    fx.engine.synchronized(*outer, [] {});
    fx.engine.synchronized(*inner, [] {});
    fx.engine.synchronized(*outer, [&] {
      EXPECT_TRUE(t->lazy_frame);
      fx.engine.synchronized(*inner, [&] {
        // The nested (biased) entry is now the lazy one; the outer frame
        // had to materialise so the stack stays LIFO.
        EXPECT_TRUE(t->lazy_frame);
        ASSERT_GE(fx.engine.find_sync(t)->frames.size(), 1u);
        EXPECT_EQ(fx.engine.find_sync(t)->frames.back().monitor, outer);
        EXPECT_EQ(t->sync_depth, 2);
      });
      EXPECT_EQ(t->sync_depth, 1);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().sections_committed, 4u);
}

TEST(BiasTest, EmptyBiasedSectionCommitsWithZeroLogTraffic) {
  RVK_SKIP_IF_ANALYZER();
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    fx.engine.synchronized(*m, [] {});  // latch
    const auto appends_before = fx.engine.stats().log_appends;
    for (int i = 0; i < 100; ++i) fx.engine.synchronized(*m, [] {});
    // No entry was ever appended, so the log never opened a chunk.
    EXPECT_EQ(t->undo_log.capacity(), 0u);
    EXPECT_EQ(fx.engine.stats().log_appends, appends_before);
  });
  fx.sched.run();
  EXPECT_EQ(m->stats().bias_grants, 100u);
  EXPECT_EQ(fx.engine.stats().sections_committed, 101u);
}

TEST(BiasTest, BiasedHolderIsStillRevokedOnInversion) {
  // The §4 deposit protocol must take over unchanged once a second thread
  // arrives: a biased, lazily-entered section that reached a yield point is
  // exactly as revocable as an ordinary one.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  int observed_by_hi = -1;
  fx.sched.spawn("Tl", 2, [&] {
    fx.engine.synchronized(*m, [] {});  // latch bias to Tl
    fx.engine.synchronized(*m, [&] {    // biased + lazy entry
      o->set<int>(0, 13);               // materialises; speculative
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
    });
  });
  fx.sched.spawn("Th", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] { observed_by_hi = o->get<int>(0); });
  });
  fx.sched.run();
  EXPECT_GT(m->stats().bias_grants, 0u);
  EXPECT_EQ(m->stats().bias_revocations, 1u);  // Th's arrival dropped it
  EXPECT_GE(fx.engine.stats().rollbacks_completed, 1u);
  EXPECT_EQ(observed_by_hi, 0) << "Th must not see Tl's revoked write";
  EXPECT_EQ(o->get<int>(0), 13) << "Tl's retry must still complete";
}

TEST(BiasTest, VictimRetryDoesNotStealFromTheReservation) {
  // After a rollback the monitor is reserved for the requester; the former
  // bias owner's retry must go through the ordinary (reservation-honouring)
  // path, not sneak back in via the bias word.
  Fixture fx;
  heap::HeapObject* o = fx.heap.alloc("o", 1);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  std::vector<char> order;
  fx.sched.spawn("Tl", 2, [&] {
    fx.engine.synchronized(*m, [] {});
    fx.engine.synchronized(*m, [&] {
      o->set<int>(0, 1);
      for (int i = 0; i < 3000; ++i) fx.sched.yield_point();
    });
    order.push_back('l');
  });
  fx.sched.spawn("Th", 8, [&] {
    fx.sched.sleep_for(50);
    fx.engine.synchronized(*m, [&] { order.push_back('h'); });
  });
  fx.sched.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 'h') << "reservation must beat the victim's retry";
  EXPECT_EQ(order[1], 'l');
}

TEST(BiasTest, ConfigOffDisablesTheLazyPath) {
  EngineConfig cfg;
  cfg.bias = false;
  Fixture fx(cfg);
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    for (int i = 0; i < 3; ++i) {
      fx.engine.synchronized(*m, [&] {
        EXPECT_FALSE(t->lazy_frame);
        EXPECT_EQ(fx.engine.find_sync(t)->frames.size(), 1u);
      });
    }
  });
  fx.sched.run();
  EXPECT_EQ(m->stats().bias_grants, 0u);
  EXPECT_EQ(m->stats().acquires, 3u);
  EXPECT_EQ(fx.engine.stats().sections_committed, 3u);
}

TEST(BiasTest, EnvKnobDisablesBias) {
  ASSERT_EQ(setenv("RVK_BIAS", "0", 1), 0);
  {
    Fixture fx;
    RevocableMonitor* m = fx.engine.make_monitor("m");
    fx.sched.spawn("t", rt::kNormPriority, [&] {
      for (int i = 0; i < 3; ++i) fx.engine.synchronized(*m, [] {});
    });
    fx.sched.run();
    EXPECT_EQ(m->stats().bias_grants, 0u);
    EXPECT_EQ(fx.engine.stats().sections_committed, 3u);
  }
  unsetenv("RVK_BIAS");
}

TEST(BiasTest, BlockingCallMaterialisesTheLazyFrame) {
  RVK_SKIP_IF_ANALYZER();
  Fixture fx;
  RevocableMonitor* m = fx.engine.make_monitor("m");
  fx.sched.spawn("t", rt::kNormPriority, [&] {
    rt::VThread* t = fx.sched.current_thread();
    fx.engine.synchronized(*m, [] {});
    fx.engine.synchronized(*m, [&] {
      EXPECT_TRUE(t->lazy_frame);
      fx.sched.sleep_for(3);  // blocking call: frame must exist first
      EXPECT_FALSE(t->lazy_frame);
      EXPECT_EQ(fx.engine.find_sync(t)->frames.size(), 1u);
    });
  });
  fx.sched.run();
  EXPECT_EQ(fx.engine.stats().sections_committed, 2u);
}

}  // namespace
}  // namespace rvk::core
