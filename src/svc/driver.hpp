// Open-loop driver: arrival schedule -> request green threads -> per-tier
// latency report (DESIGN.md §15).
//
// One run_open_loop call is one load point: a fresh scheduler (strict
// priority — the protocols under comparison need priorities to mean
// something), a fresh BankService on the chosen protocol, and an injector
// thread that walks the precomputed arrival schedule on the virtual clock,
// spawning one green thread per request WITHOUT waiting for completions.
// Latency is measured from the scheduled arrival tick, not from first
// dispatch, so queueing delay the service causes is charged to the service
// — the open-loop property that makes tail percentiles honest under load
// (no coordinated omission).
//
// In-flight threads are bounded by an admission cap; an arrival beyond the
// cap is shed (counted, never silently dropped).  Finished request stacks
// are reclaimed by the scheduler (rt::Scheduler), so stack memory is
// O(max_in_flight); each finished request's control block and undo log
// still live until the scheduler dies (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <vector>

#include "svc/arrivals.hpp"
#include "svc/latency.hpp"
#include "svc/service.hpp"
#include "svc/tiers.hpp"

namespace rvk::svc {

struct OpenLoopConfig {
  ArrivalConfig arrivals;  // tier_weights is overwritten from `tiers`
  std::vector<TierSpec> tiers = default_tiers();
  ServiceConfig service;
  std::uint64_t duration = 40'000;  // injection window, virtual ticks
  // Admission cap (excess arrivals shed and counted).  16384 admits the
  // full macro_open surge point (~6k peak in flight, past the old 4096
  // cap) without shedding (DESIGN.md §15).
  int max_in_flight = 16384;
  std::uint64_t seed = 1;
  int quantum = 50;
  std::size_t stack_size = 32 * 1024;  // requests are shallow; keep RSS low
};

struct OpenLoopResult {
  TierRecorder recorder;
  std::uint64_t arrivals = 0;     // requests the schedule offered
  std::uint64_t total_ticks = 0;  // virtual span until the last completion
  std::uint64_t rollbacks = 0;    // kRevocation only
  std::uint64_t entry_giveups = 0;
  std::uint64_t max_in_flight_seen = 0;
  std::uint64_t ledger_initial = 0;
  std::uint64_t ledger_final = 0;  // == ledger_initial (conservation)
};

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg);

}  // namespace rvk::svc
