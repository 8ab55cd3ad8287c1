// Cross-shard engine behaviour (DESIGN.md §16), on the deterministic
// cooperative DomainSet and the virtual clock: mailbox-delivered revocation
// lands on the owner shard with the classic semantics (oldest-frame
// targeting, upward pin closure §2.2, refusal-as-counted-drop), cross-shard
// notify wakes a remote waiter, a remote boost repositions the target in
// its home shard's queues, and the deflation veto holds while any inbound
// message is in flight.  The last test starts shards on real OS threads
// instead, to check that their engines can be built concurrently.
//
// All cooperative scenarios run with strict_priority=true: sequencing below
// is argued from priorities (a priority-1 trigger thread runs only after
// everything above it blocked), which round-robin would not guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/revocable_monitor.hpp"
#include "heap/heap.hpp"
#include "rt/domain.hpp"
#include "rt/mailbox.hpp"
#include "rt/scheduler.hpp"

namespace rvk {
namespace {

rt::DomainSet::Config two_shards() {
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.sched.strict_priority = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Remote revocation executes on the owner shard with oldest-frame targeting.
//
// Shard 1: W(5) holds m2 and waits on m3 (wait pins W, who is never a
// target).  owner(2) nests synchronized(m){ synchronized(n){ enter m2 }} and
// parks on m2's entry queue.  S(1) — lowest, so it runs only after both
// blocked — remote-spawns the requester onto shard 0, which posts a kRevoke
// against `m` and then ships a notifier section that releases the chain.
// The revocation targets owner's OLDEST frame of m, so the rollback unwinds
// both the m and the nested n frame (frames_aborted == 2) even though the
// contended entry sat below them.

struct RevokeRunShape {
  std::uint64_t revokes_executed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t frames_aborted = 0;
  std::uint64_t requested = 0;
  int owner_attempts = 0;
  std::vector<std::string> events;  // "tick label", shard 1 clock
  bool operator==(const RevokeRunShape& o) const {
    return revokes_executed == o.revokes_executed && dropped == o.dropped &&
           rollbacks == o.rollbacks && frames_aborted == o.frames_aborted &&
           requested == o.requested && owner_attempts == o.owner_attempts &&
           events == o.events;
  }
};

RevokeRunShape run_remote_revoke_scenario() {
  rt::DomainSet set(two_shards());
  RevokeRunShape shape;
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  core::RevocableMonitor* n = nullptr;
  core::RevocableMonitor* m2 = nullptr;
  core::RevocableMonitor* m3 = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;

  auto mark = [&](const char* label) {
    shape.events.push_back(std::to_string(s1->now()) + " " + label);
  };

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m = eng[1]->make_monitor("m");
        n = eng[1]->make_monitor("n");
        m2 = eng[1]->make_monitor("m2");
        m3 = eng[1]->make_monitor("m3");
        d.sched().spawn("W", 5, [&] {
          eng[1]->synchronized(*m2, [&] {
            eng[1]->synchronized(*m3, [&] { m3->wait(); });
          });
          mark("w-done");
        });
        owner_vt = d.sched().spawn("owner", 2, [&] {
          eng[1]->synchronized(*m, [&] {
            ++shape.owner_attempts;  // host-side: survives the rollback
            s1->yield_point();
            eng[1]->synchronized(*n, [&] {
              s1->yield_point();
              eng[1]->synchronized(*m2, [] {});  // held by W: parks here
            });
          });
          mark("owner-done");
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_revoke(1, owner_vt, m, 8);
            set.remote_call(1, 6, "m3-notify", [&] {
              eng[1]->synchronized(*m3, [&] { m3->notify_one(); });
            });
            mark("req-done");
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          shape.revokes_executed = d.revokes_executed();
          shape.dropped = d.dropped();
          const core::EngineStats& st = eng[1]->stats();
          shape.rollbacks = st.rollbacks_completed;
          shape.frames_aborted = st.frames_aborted;
          shape.requested = st.revocations_requested;
        }
        eng[d.id()].reset();  // engine dies before its shard's scheduler
      });
  EXPECT_FALSE(set.deadlocked());
  return shape;
}

TEST(CrossShardRevokeTest, ExecutesOnOwnerShardTargetingOldestFrame) {
  const RevokeRunShape r = run_remote_revoke_scenario();
  EXPECT_EQ(r.revokes_executed, 1u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(r.requested, 1u);
  EXPECT_EQ(r.rollbacks, 1u);
  // Oldest-frame targeting: the request named `m`, and both the m frame and
  // the nested n frame unwound.  A request against the innermost frame
  // would have aborted one.
  EXPECT_EQ(r.frames_aborted, 2u);
  EXPECT_EQ(r.owner_attempts, 2);  // rolled back once, retried, committed
  std::string all;
  for (const std::string& ev : r.events) all += ev + "; ";
  ASSERT_EQ(r.events.size(), 3u) << all;
  // Shard 1 unwinds the whole chain (W first — it outranks the retrying
  // owner) before shard 0 gets its next round-robin turn to drain the
  // kSectionDone that resumes the requester.
  EXPECT_NE(r.events[0].find("w-done"), std::string::npos) << all;
  EXPECT_NE(r.events[1].find("owner-done"), std::string::npos) << all;
  EXPECT_NE(r.events[2].find("req-done"), std::string::npos) << all;
}

TEST(CrossShardRevokeTest, DeterministicTickForTick) {
  // The cooperative mode's promise, on the full engine path: identical
  // construction replays the identical interleaving, including every
  // tick-stamped event of the revocation chain.
  const RevokeRunShape a = run_remote_revoke_scenario();
  const RevokeRunShape b = run_remote_revoke_scenario();
  EXPECT_TRUE(a == b);
}

TEST(CrossShardRevokeTest, RacingACommitIsACountedDropNotAnError) {
  // The requester's view of the owner is stale by construction (a mailbox
  // hop old).  Here the owner commits before the kRevoke arrives: the
  // refusal must be a counted drop on the owner shard, with no rollback.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  rt::WaitQueue gate;
  int owner_attempts = 0;
  bool owner_done = false;
  RevokeRunShape shape;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m = eng[1]->make_monitor("m");
        owner_vt = d.sched().spawn("owner", 5, [&] {
          eng[1]->synchronized(*m, [&] {
            ++owner_attempts;
            s1->yield_point();
          });
          // Committed.  Stay alive (parked on a test gate) so the stale
          // kRevoke dereferences a live thread, not a freed one.
          s1->block_current_on(gate);
          owner_done = true;
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_revoke(1, owner_vt, m, 8);
            set.remote_call(1, 6, "waker",
                            [&] { s1->wake_specific(gate, owner_vt); });
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          shape.revokes_executed = d.revokes_executed();
          shape.dropped = d.dropped();
          shape.rollbacks = eng[1]->stats().rollbacks_completed;
        }
        eng[d.id()].reset();
      });
  EXPECT_TRUE(owner_done);
  EXPECT_EQ(owner_attempts, 1);  // never rolled back
  EXPECT_EQ(shape.dropped, 1u);
  EXPECT_EQ(shape.revokes_executed, 0u);
  EXPECT_EQ(shape.rollbacks, 0u);
}

TEST(CrossShardRevokeTest, PinClosureRefusesRemoteRevocation) {
  // §2.2 upward closure across the mailbox: the pin is taken in the INNER
  // n frame (a native-call scope), the remote request targets the OUTER m
  // frame — and must still be refused, as a counted drop plus a
  // revocations_denied_pinned tick, with zero rollbacks.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m = nullptr;
  core::RevocableMonitor* n = nullptr;
  rt::VThread* owner_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  rt::WaitQueue gate;
  int owner_attempts = 0;
  std::uint64_t denied_pinned = 0;
  RevokeRunShape shape;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m = eng[1]->make_monitor("m");
        n = eng[1]->make_monitor("n");
        owner_vt = d.sched().spawn("owner", 5, [&] {
          eng[1]->synchronized(*m, [&] {
            ++owner_attempts;
            eng[1]->synchronized(*n, [&] {
              core::NativeCallScope pin(*eng[1]);
              // Hold the pinned section across the revocation attempt.
              s1->block_current_on(gate);
            });
          });
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_revoke(1, owner_vt, m, 8);
            set.remote_call(1, 6, "waker",
                            [&] { s1->wake_specific(gate, owner_vt); });
          });
        });
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          shape.dropped = d.dropped();
          shape.revokes_executed = d.revokes_executed();
          shape.rollbacks = eng[1]->stats().rollbacks_completed;
          shape.frames_aborted = eng[1]->stats().frames_aborted;
          denied_pinned = eng[1]->stats().revocations_denied_pinned;
        }
        eng[d.id()].reset();
      });
  EXPECT_EQ(owner_attempts, 1);
  EXPECT_EQ(denied_pinned, 1u);
  EXPECT_EQ(shape.dropped, 1u);
  EXPECT_EQ(shape.revokes_executed, 0u);
  EXPECT_EQ(shape.rollbacks, 0u);
  EXPECT_EQ(shape.frames_aborted, 0u);
}

TEST(CrossShardMonitorTest, NotifyFromShippedSectionWakesRemoteWaiter) {
  // Cross-shard notify is "just" a shipped section: the waiter's shard runs
  // the notifier between its own yield points, so the classic wait/notify
  // protocol (including the §2.2 wait pin) needs no new mechanism.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* mw = nullptr;
  bool woke = false;
  std::uint64_t waits = 0;
  std::uint64_t notifies = 0;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() == 1) {
          mw = eng[1]->make_monitor("mw");
          d.sched().spawn("waiter", 5, [&] {
            eng[1]->synchronized(*mw, [&] { mw->wait(); });
            woke = true;
          });
        } else {
          d.sched().spawn("req", 5, [&] {
            // Priority 1: on shard 1 the waiter (5) must reach its wait()
            // before this helper's notify, or the wakeup is lost.
            set.remote_call(1, 1, "notifier", [&] {
              eng[1]->synchronized(*mw, [&] { mw->notify_one(); });
            });
          });
        }
      },
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          waits = mw->stats().waits;
          notifies = mw->stats().notifies;
        }
        eng[d.id()].reset();
      });
  EXPECT_TRUE(woke);
  EXPECT_EQ(waits, 1u);
  EXPECT_EQ(notifies, 1u);
  EXPECT_FALSE(set.deadlocked());
}

TEST(CrossShardMonitorTest, RemoteBoostRepositionsEntryQueue) {
  // kBoost executes on the target's home shard (priority is scheduler state
  // there) and must re-bucket a parked thread in place: T(2) sits behind
  // C(3) on m2's entry queue until the remote boost to 8 moves it ahead.
  rt::DomainSet set(two_shards());
  std::unique_ptr<core::Engine> eng[2];
  core::RevocableMonitor* m2 = nullptr;
  core::RevocableMonitor* m3 = nullptr;
  rt::VThread* t_vt = nullptr;
  rt::Scheduler* s1 = nullptr;
  int t_prio_seen = 0;
  std::string order;

  set.run(
      [&](rt::Domain& d) {
        eng[d.id()] = std::make_unique<core::Engine>(d.sched());
        if (d.id() != 1) return;
        s1 = &d.sched();
        m2 = eng[1]->make_monitor("m2");
        m3 = eng[1]->make_monitor("m3");
        d.sched().spawn("h", 5, [&] {
          eng[1]->synchronized(*m2, [&] {
            eng[1]->synchronized(*m3, [&] { m3->wait(); });
          });
        });
        d.sched().spawn("C", 3, [&] {
          eng[1]->synchronized(*m2, [&] { order += 'C'; });
        });
        t_vt = d.sched().spawn("T", 2, [&] {
          eng[1]->synchronized(*m2, [&] {
            t_prio_seen = s1->current_thread()->priority();
            order += 'T';
          });
        });
        d.sched().spawn("S", 1, [&] {
          set.remote_spawn(0, "req", 5, [&] {
            set.remote_boost(1, t_vt, 8);
            set.remote_call(1, 4, "m3-notify", [&] {
              eng[1]->synchronized(*m3, [&] { m3->notify_one(); });
            });
          });
        });
      },
      [&](rt::Domain& d) { eng[d.id()].reset(); });
  EXPECT_EQ(t_prio_seen, 8);  // entered the section already boosted
  EXPECT_EQ(order, "TC");     // boost moved T ahead of the higher-born C
}

TEST(CrossShardDeflationTest, InboundWorkVetoesDeflation) {
  // DESIGN.md §16: a monitor may not deflate while ANY inbound message is
  // unexecuted — the message may reference it.  The veto keys off
  // Domain::inbound_work(), so even a no-op shipped section blocks
  // scavenging until the shard has fully run it.
  rt::DomainSet set(two_shards());
  set.with_domain(1, [&](rt::Domain& d) {
    core::Engine eng(d.sched());  // binds to the entered domain
    heap::Heap heap;
    heap::HeapObject* obj = heap.alloc("obj", 2);
    ASSERT_NE(eng.monitor_of(obj), nullptr);  // inflate; quiescent at once

    // A fire-and-forget no-op from shard 0, not yet drained.  (Posting from
    // the set-owning thread is legal while the set is not started.)
    auto* call = new rt::RemoteCall;
    call->body = [] {};
    call->name = "noop";
    call->from = 0;
    rt::Message msg;
    msg.kind = rt::Message::Kind::kRunSection;
    msg.from = 0;
    msg.call = call;
    d.post(msg);

    EXPECT_EQ(d.inbound_work(), 1u);
    EXPECT_EQ(eng.scavenge_monitors(), 0u);  // vetoed: message in flight

    d.drain_and_service();  // spawns the helper…
    EXPECT_EQ(eng.scavenge_monitors(), 0u);  // …still in flight until it ran
    d.sched().run();
    EXPECT_EQ(d.inbound_work(), 0u);
    EXPECT_EQ(eng.scavenge_monitors(), 1u);  // quiescent again: deflates
  });
}

// The one kOsThreads scenario here: each shard builds its Engine in the
// start lambda, on its own OS thread, so two engine constructors run at
// once and both register a deflation veto in the process-wide
// MonitorTable.  The table must already be in its locked multi-shard mode
// by then; otherwise the two unlocked hash-map inserts race (TSan reports
// it; without TSan it can corrupt the veto map).  Repeated, since a race
// needs the constructors to overlap.
TEST(CrossShardStartupTest, ConcurrentEngineConstructionIsRaceFree) {
  for (int round = 0; round < 20; ++round) {
    rt::DomainSet::Config cfg;
    cfg.shards = 2;
    cfg.mode = rt::DomainSet::Mode::kOsThreads;
    rt::DomainSet set(cfg);
    std::unique_ptr<core::Engine> eng[2];
    std::uint64_t committed[2] = {0, 0};
    set.start(
        [&](rt::Domain& d) {
          core::Engine& e = *(eng[d.id()] =
                                  std::make_unique<core::Engine>(d.sched()));
          core::RevocableMonitor* m = e.make_monitor("m");
          d.sched().spawn("w", 5, [&e, m] { e.synchronized(*m, [] {}); });
        },
        [&](rt::Domain& d) {
          committed[d.id()] = eng[d.id()]->stats().sections_committed;
          eng[d.id()].reset();
        });
    set.join();
    EXPECT_EQ(committed[0], 1u);
    EXPECT_EQ(committed[1], 1u);
  }
}

}  // namespace
}  // namespace rvk
