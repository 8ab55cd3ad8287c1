// Open-loop driver: determinism, give-up/shed accounting, ledger
// conservation across all four protocols (DESIGN.md §15).  Everything runs
// on the virtual clock — assertions are exact, never wall-clock.
#include <gtest/gtest.h>

#include <cstdint>

#include "log/undo_log.hpp"
#include "svc/driver.hpp"

namespace rvk::svc {
namespace {

OpenLoopConfig small_config(Protocol proto, std::uint64_t seed = 42) {
  OpenLoopConfig cfg;
  cfg.arrivals.rate = kProbOne / 110;  // ~80% of the default-mix capacity
  cfg.service.protocol = proto;
  cfg.duration = 6000;
  cfg.seed = seed;
  return cfg;
}

void expect_nothing_vanished(const OpenLoopResult& r, std::size_t tiers) {
  std::uint64_t offered = 0;
  for (std::size_t t = 0; t < tiers; ++t) offered += r.recorder.offered(t);
  EXPECT_EQ(offered, r.arrivals);  // completed + giveups + sheds == injected
}

TEST(OpenLoopDriverTest, DeterministicUnderFixedSeed) {
  const OpenLoopConfig cfg = small_config(Protocol::kRevocation);
  const OpenLoopResult a = run_open_loop(cfg);
  const OpenLoopResult b = run_open_loop(cfg);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.max_in_flight_seen, b.max_in_flight_seen);
  for (std::size_t t = 0; t < a.recorder.tier_count(); ++t) {
    EXPECT_EQ(a.recorder.completed(t), b.recorder.completed(t)) << t;
    EXPECT_EQ(a.recorder.giveups(t), b.recorder.giveups(t)) << t;
    EXPECT_EQ(a.recorder.sheds(t), b.recorder.sheds(t)) << t;
    EXPECT_EQ(a.recorder.latency(t).max(), b.recorder.latency(t).max()) << t;
    EXPECT_EQ(a.recorder.latency(t).percentile(0.99),
              b.recorder.latency(t).percentile(0.99))
        << t;
  }

  // A different seed must actually change the run (the knob is live).
  const OpenLoopResult c = run_open_loop(small_config(Protocol::kRevocation, 7));
  EXPECT_NE(a.arrivals, c.arrivals);
}

TEST(OpenLoopDriverTest, AllProtocolsCompleteWorkAndConserveLedger) {
  for (const Protocol proto : kAllProtocols) {
    const OpenLoopResult r = run_open_loop(small_config(proto));
    SCOPED_TRACE(protocol_name(proto));
    EXPECT_GT(r.arrivals, 0u);
    expect_nothing_vanished(r, r.recorder.tier_count());
    // At 80% load every protocol completes the bulk of the traffic.
    std::uint64_t completed = 0;
    for (std::size_t t = 0; t < r.recorder.tier_count(); ++t) {
      completed += r.recorder.completed(t);
    }
    EXPECT_GT(completed, r.arrivals * 3 / 4);
    EXPECT_EQ(r.ledger_final, r.ledger_initial);
    if (proto != Protocol::kRevocation) {
      EXPECT_EQ(r.rollbacks, 0u);
    }
  }
}

TEST(OpenLoopDriverTest, MissedDeadlinesAreCountedGiveUpsNotHangs) {
  // Deadlines far below the contended wait: a hot tier that can never wait
  // out a slow section, injected at well over capacity.  The run must
  // terminate (virtual clock, no wedge) with every arrival accounted for.
  for (const Protocol proto : kAllProtocols) {
    OpenLoopConfig cfg;
    cfg.tiers = {
        {"hot", 9, 3, 1, 4},      // 3-tick entry budget: gives up under load
        {"slow", 3, 20'000, 1, 300},
    };
    cfg.arrivals.rate = kProbOne / 60;
    cfg.service.protocol = proto;
    cfg.service.shards = 1;  // maximize contention
    cfg.duration = 6000;
    cfg.seed = 42;
    const OpenLoopResult r = run_open_loop(cfg);
    SCOPED_TRACE(protocol_name(proto));
    expect_nothing_vanished(r, 2);
    EXPECT_GT(r.recorder.giveups(0), 0u);  // hot tier missed SLOs, counted
    EXPECT_EQ(r.ledger_final, r.ledger_initial);
  }
}

TEST(OpenLoopDriverTest, AdmissionCapShedsAndCounts) {
  OpenLoopConfig cfg = small_config(Protocol::kBlocking);
  cfg.arrivals.rate = kProbOne / 30;  // ~3x capacity
  cfg.max_in_flight = 2;
  const OpenLoopResult r = run_open_loop(cfg);
  std::uint64_t sheds = 0;
  for (std::size_t t = 0; t < r.recorder.tier_count(); ++t) {
    sheds += r.recorder.sheds(t);
  }
  EXPECT_GT(sheds, 0u);
  EXPECT_LE(r.max_in_flight_seen, 2u);
  expect_nothing_vanished(r, r.recorder.tier_count());
}

TEST(OpenLoopDriverTest, LatencyChargedFromScheduledArrival) {
  // One tier, serial sections longer than the mean gap: queueing delay must
  // show up in the recorded latency (open loop — no coordinated omission).
  OpenLoopConfig cfg;
  cfg.tiers = {{"only", 5, 100'000, 1, 50}};
  cfg.arrivals.rate = kProbOne / 40;  // gap 40 ticks < 50-tick sections
  cfg.service.protocol = Protocol::kBlocking;
  cfg.service.shards = 1;
  cfg.duration = 4000;
  cfg.seed = 42;
  const OpenLoopResult r = run_open_loop(cfg);
  ASSERT_GT(r.recorder.completed(0), 10u);
  // Mean latency must exceed the bare section cost: the backlog is charged.
  EXPECT_GT(r.recorder.latency(0).mean(), 50.0);
}

TEST(OpenLoopDriverTest, RecycledResourcesStayBoundedAsDurationDoubles) {
  // One green thread per request, but a finished request's stack and undo-
  // log chunk are recycled: fresh stack mappings and fresh chunk
  // allocations are bounded by the live high-water (requests in flight plus
  // the injector), not by the number of requests spawned — doubling the
  // run doubles the spawns, not the fresh allocations.  rho = 95% under
  // revocation (the repository benchmark's open_revocation point): requests
  // log, and many roll back.
  OpenLoopConfig cfg;
  cfg.arrivals.rate = static_cast<std::uint32_t>(
      std::uint64_t{kProbOne} * 95 / (100 * 88));
  cfg.service.protocol = Protocol::kRevocation;
  cfg.seed = 42;
  for (const std::uint64_t duration : {80'000u, 160'000u}) {
    SCOPED_TRACE(duration);
    cfg.duration = duration;
    const std::uint64_t chunks_before = log::detail::allocated_chunk_count();
    const OpenLoopResult r = run_open_loop(cfg);
    const std::uint64_t fresh_chunks =
        log::detail::allocated_chunk_count() - chunks_before;
    const std::uint64_t live_high_water = r.max_in_flight_seen + 1;
    EXPECT_GT(r.rollbacks, 0u);
    EXPECT_GT(r.arrivals, 8 * live_high_water);  // the bound is no spawn count
    EXPECT_GE(r.stacks_mapped, 1u);
    EXPECT_LE(r.stacks_mapped, live_high_water);
    EXPECT_LE(fresh_chunks, live_high_water);
  }
}

}  // namespace
}  // namespace rvk::svc
