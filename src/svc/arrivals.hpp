// Open-loop arrival generation on the virtual clock (DESIGN.md §15).
//
// An open-loop load generator injects requests on a precomputed schedule and
// never waits for completions — the defining difference from a closed-loop
// population (the figure workloads, examples/bank_audit), whose threads
// cannot arrive while their previous operation is still queued (coordinated
// omission).  The schedule is
// generated ahead of the run from one seed, so a load point is replayable
// and byte-identical across platforms:
//
//  * Poisson traffic is discretized as a Bernoulli process: each virtual
//    tick is an arrival with probability rate/kProbOne, giving geometric
//    inter-arrival times with mean kProbOne/rate ticks — the discrete-time
//    analogue of exponential gaps.  All sampling is integer fixed-point;
//    no libm call whose last ulp could differ between platforms touches
//    the schedule.
//  * Bursty traffic is a two-state Markov-modulated process (MMPP-2): the
//    generator flips between a burst state and an idle state with
//    geometric sojourn times (means burst_len / idle_len ticks), emitting
//    Bernoulli arrivals at burst_rate or idle_rate respectively.  The
//    long-run duty cycle is burst_len / (burst_len + idle_len).
//
// Each arrival is stamped with its SLO tier (sampled from tier_weights) and
// a private RNG seed at generation time, so a request's behaviour does not
// depend on the execution order of the requests around it.
#pragma once

#include <cstdint>
#include <vector>

namespace rvk::svc {

// Fixed-point one: per-tick arrival probabilities are rate/kProbOne.
inline constexpr std::uint32_t kProbOne = 1u << 16;

struct Arrival {
  std::uint64_t tick;  // virtual-clock injection time
  std::uint32_t tier;  // index into the tier table the schedule was built for
  std::uint64_t seed;  // per-request RNG stream, fixed at generation time

  bool operator==(const Arrival&) const = default;
};

enum class ArrivalKind : std::uint8_t { kPoisson, kBursty };

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;

  // Poisson: P(arrival at a tick) = rate/kProbOne; mean gap kProbOne/rate.
  std::uint32_t rate = kProbOne / 64;

  // Bursty (MMPP-2): per-tick rates in the burst / idle states, and the
  // geometric sojourn means of each state in ticks.
  std::uint32_t burst_rate = 0;
  std::uint32_t idle_rate = 0;
  std::uint64_t burst_len = 1;
  std::uint64_t idle_len = 1;

  // Arrival i is tier t with probability tier_weights[t] / sum(weights).
  std::vector<std::uint32_t> tier_weights{1};
};

struct ArrivalSchedule {
  std::vector<Arrival> arrivals;
  std::uint64_t duration = 0;     // ticks the schedule spans
  std::uint64_t burst_ticks = 0;  // ticks spent in the burst state (MMPP)
};

// Generates the arrival schedule for `duration` virtual ticks.  Same
// (cfg, duration, seed) => identical schedule, on every platform.
ArrivalSchedule generate(const ArrivalConfig& cfg, std::uint64_t duration,
                         std::uint64_t seed);

// Expected arrivals per tick (the offered load λ of the process).
double offered_rate(const ArrivalConfig& cfg);

}  // namespace rvk::svc
