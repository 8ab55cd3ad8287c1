// Scheduler dispatch micro-costs (DESIGN.md §8).
//
// The paper's argument prices revocation against the inversion it cures, so
// dispatch — paid at every yield point — must cost O(1), not O(runnable
// threads).  These benchmarks pin that down three ways:
//
//  * BM_BitmapQueue_PushPop vs BM_LinearScanQueue_PushPop: the new
//    priority-bucketed bitmap queue against a faithful replica of the old
//    linear-scan WaitQueue, at growing resident sizes.  The bitmap queue
//    must stay flat; the replica grows linearly (the acceptance bar is
//    >=10x at 1k resident threads).
//  * BM_SchedulerDispatch: end-to-end yield->switch->dispatch round trips
//    through the real scheduler at 10 to 10,000 runnable threads (flat;
//    a residual drift at 10k is cache pressure from ~160MB of stacks and
//    thread objects, not queue length).
//  * BM_DispatchWithSleepers: dispatch cost while many threads sit on the
//    deadline heap — the old per-tick O(sleepers) sweep is now one
//    heap-top compare (flat).
//  * BM_SchedulerSleepWake: sleep/wake cycles through the timer heap at
//    10 to 10,000 sleeping threads (grows only logarithmically).
//  * BM_SchedulerDispatchObs: the same round trip with the observability
//    recorder installed — each rotation additionally pays two event-ring
//    writes (dispatch + switch-out).  A small constant add, still flat in
//    the thread count; BM_SchedulerDispatch is the obs-off baseline and
//    must not move when the recorder is merely linked in (null-checked
//    pointer, never taken).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "rt/scheduler.hpp"

namespace {

using namespace rvk;

// Detached queue payloads: never spawned, never run (spawning would link
// them into the scheduler's ready queue).
struct Payload {
  explicit Payload(std::size_t n) {
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads.push_back(std::make_unique<rt::VThread>(
          &sched, static_cast<rt::ThreadId>(i + 1), "p" + std::to_string(i),
          static_cast<int>(i % 10) + 1, [] {}, /*stack_size=*/4096));
    }
  }
  rt::Scheduler sched;
  std::vector<std::unique_ptr<rt::VThread>> threads;
};

// Replica of the pre-bitmap WaitQueue (vector + full scan for the best
// waiter) — the baseline the O(1) structure is measured against.
class LinearScanQueue {
 public:
  void push(rt::VThread* t) { items_.push_back({t, next_seq_++}); }

  rt::VThread* pop_best() {
    if (items_.empty()) return nullptr;
    std::size_t best = 0;
    for (std::size_t i = 1; i < items_.size(); ++i) {
      if (items_[i].thread->priority() > items_[best].thread->priority() ||
          (items_[i].thread->priority() == items_[best].thread->priority() &&
           items_[i].seq < items_[best].seq)) {
        best = i;
      }
    }
    rt::VThread* t = items_[best].thread;
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(best));
    return t;
  }

 private:
  struct Item {
    rt::VThread* thread;
    std::uint64_t seq;
  };
  std::vector<Item> items_;
  std::uint64_t next_seq_ = 0;
};

void BM_BitmapQueue_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Payload p(n);
  rt::WaitQueue q;
  for (auto& t : p.threads) q.push(t.get());
  for (auto _ : state) {
    rt::VThread* t = q.pop_best();
    benchmark::DoNotOptimize(t);
    q.push(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("resident threads: " + std::to_string(n) + " (flat)");
}
BENCHMARK(BM_BitmapQueue_PushPop)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LinearScanQueue_PushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Payload p(n);
  LinearScanQueue q;
  for (auto& t : p.threads) q.push(t.get());
  for (auto _ : state) {
    rt::VThread* t = q.pop_best();
    benchmark::DoNotOptimize(t);
    q.push(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("resident threads: " + std::to_string(n) + " (O(n) baseline)");
}
BENCHMARK(BM_LinearScanQueue_PushPop)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

// Full yield-point -> switch-out -> pick-next -> dispatch round trip with N
// runnable threads, quantum 1 so every yield rotates the processor.
void BM_SchedulerDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYieldsPerThread = 64;
  for (auto _ : state) {
    state.PauseTiming();
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    for (int i = 0; i < n; ++i) {
      sched.spawn("t" + std::to_string(i), rt::kNormPriority, [&sched] {
        for (int k = 0; k < kYieldsPerThread; ++k) sched.yield_point();
      });
    }
    state.ResumeTiming();
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          kYieldsPerThread);
  state.SetLabel("runnable threads: " + std::to_string(n) +
                 " (ns/item = one dispatch; flat)");
}
BENCHMARK(BM_SchedulerDispatch)
    ->Arg(10)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(10000);

// BM_SchedulerDispatch with the obs recorder installed: prices the per-
// dispatch instrumentation (one ring write on dispatch, one on switch-out;
// spawn registers the ring once per thread, outside the timed loop's
// steady state).
void BM_SchedulerDispatchObs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYieldsPerThread = 64;
  const bool owned = obs::Recorder::active() == nullptr;
  if (owned) obs::Recorder::install();
  for (auto _ : state) {
    state.PauseTiming();
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    // Fresh scheduler ⇒ restart thread ids and the recorder's rings, as the
    // harness does per repetition.
    obs::on_run_begin();
    for (int i = 0; i < n; ++i) {
      sched.spawn("t" + std::to_string(i), rt::kNormPriority, [&sched] {
        for (int k = 0; k < kYieldsPerThread; ++k) sched.yield_point();
      });
    }
    state.ResumeTiming();
    sched.run();
  }
  if (owned) obs::Recorder::uninstall();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          kYieldsPerThread);
  state.SetLabel("runnable threads: " + std::to_string(n) +
                 " (obs on: +2 ring writes/dispatch; flat)");
}
BENCHMARK(BM_SchedulerDispatchObs)->Arg(16)->Arg(256)->Arg(1024);

// One worker spinning through yield points while N threads hold armed
// deadlines on the timer heap.  The virtual-clock tick must not pay
// O(sleepers).  Manual timing brackets only the worker's yield phase: the
// final drain (waking and finishing N sleepers once the worker exits) is
// real but is not the steady-state cost this benchmark isolates.
void BM_DispatchWithSleepers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kYields = 4096;
  for (auto _ : state) {
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    for (int i = 0; i < n; ++i) {
      sched.spawn("sleeper" + std::to_string(i), rt::kNormPriority,
                  [&sched] { sched.sleep_for(1u << 30); });
    }
    double seconds = 0;
    sched.spawn("worker", rt::kNormPriority, [&sched, &seconds] {
      const auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < kYields; ++k) sched.yield_point();
      seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    });
    sched.run();
    state.SetIterationTime(seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kYields);
  state.SetLabel("armed timers: " + std::to_string(n) + " (flat)");
}
BENCHMARK(BM_DispatchWithSleepers)->Arg(0)->Arg(256)->Arg(4096)->UseManualTime();

// Sleep/wake churn with N threads: every thread arms a deadline, the idle
// clock fast-forwards, all wake — kSleepRounds times.  Prices arm_timer +
// fire_due_timers + the wakeup dispatch per cycle; the deadline min-heap
// keeps it O(log N), where the old per-tick sleeper sweep was O(N).
void BM_SchedulerSleepWake(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kSleepRounds = 8;
  for (auto _ : state) {
    state.PauseTiming();
    rt::SchedulerConfig cfg;
    cfg.quantum = 1;
    cfg.stack_size = 16 * 1024;
    rt::Scheduler sched(cfg);
    for (int i = 0; i < n; ++i) {
      sched.spawn("sleeper", rt::kNormPriority, [&sched] {
        for (int r = 0; r < kSleepRounds; ++r) sched.sleep_for(100);
      });
    }
    state.ResumeTiming();
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          kSleepRounds);
  state.SetLabel("sleeping threads: " + std::to_string(n) +
                 " (ns/item = one sleep/wake cycle; ~log n)");
}
BENCHMARK(BM_SchedulerSleepWake)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  std::printf(
      "\nExpected shape: the bitmap queue stays flat while the linear-scan\n"
      "replica grows with resident threads (>=10x apart at 1k);\n"
      "BM_SchedulerDispatch and BM_DispatchWithSleepers stay flat as\n"
      "threads/timers grow (up to ~2x drift at 10k threads from cache\n"
      "pressure); BM_SchedulerSleepWake grows only logarithmically;\n"
      "BM_SchedulerDispatchObs stays flat too, a constant above\n"
      "BM_SchedulerDispatch (two timestamped event-ring writes per\n"
      "rotation, dominated by the steady-clock reads).\n");
  return 0;
}
