// native_threads: revocation on real OS threads, through scheduler shards.
//
// A two-shard rt::DomainSet runs each shard on its own OS thread
// (kOsThreads, DESIGN.md §16).  On shard 0 a priority-2 logger writes
// 4000-record batches into a ring under an engine monitor.  On shard 1 an
// alerter needs a consistent ring head now, 50 times: it ships each read to
// shard 0 with DomainSet::remote_call, whose priority-9 helper contends for
// the monitor like a local thread, so the engine revokes the logger's batch
// at its next yield point and the alert proceeds.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/engine.hpp"
#include "heap/heap.hpp"
#include "rt/domain.hpp"

int main() {
  using namespace rvk;
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  constexpr int kRing = 64, kBatch = 4000, kAlerts = 50;
  rt::DomainSet::Config cfg;
  cfg.shards = 2;
  cfg.mode = rt::DomainSet::Mode::kOsThreads;
  rt::DomainSet set(cfg);
  heap::Heap heap;  // this and the next five: shard 0's thread only
  std::unique_ptr<core::Engine> engine;
  core::RevocableMonitor* ring_lock = nullptr;
  heap::HeapObject* ring = nullptr;  // slot 0 is the head
  int served = 0;
  core::EngineStats st;
  double worst_ms = 0;  // shard 1's
  set.start(
      [&](rt::Domain& d) {
        if (d.id() == 1) {
          d.sched().spawn("alerter", 9, [&] {
            for (int a = 0; a < kAlerts; ++a) {
              // Shard 1 runs nothing else: alerts may arrive in real time.
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
              const auto t0 = Clock::now();
              set.remote_call(0, 9, "alert", [&] {
                engine->synchronized(
                    *ring_lock, [&] { (void)ring->get<std::uint64_t>(0); });
                ++served;
              });
              worst_ms = std::max(worst_ms, Ms(Clock::now() - t0).count());
            }
          });
          return;
        }
        engine = std::make_unique<core::Engine>(d.sched());
        ring_lock = engine->make_monitor("ring");
        ring = heap.alloc("ring", kRing + 1);
        d.sched().spawn("logger", 2, [&] {
          for (std::uint64_t record = 0; served < kAlerts; record += kBatch) {
            engine->synchronized(*ring_lock, [&] {
              const auto head = ring->get<std::uint64_t>(0);
              for (int i = 0; i < kBatch; ++i) {
                ring->set<std::uint64_t>(1 + (head + i) % kRing, record + i);
                rt::yield_point();
              }
              ring->set<std::uint64_t>(0, (head + kBatch) % kRing);
            });
          }
          st = engine->stats();  // every alert has committed by now
        });
      },
      [&](rt::Domain& d) { if (d.id() == 0) engine.reset(); });
  set.join();

  std::printf(
      "native_threads: %d alerts served, worst alert latency %.3f ms\n"
      "logger: %llu rollbacks (%llu revocations requested)\n",
      served, worst_ms, static_cast<unsigned long long>(st.rollbacks_completed),
      static_cast<unsigned long long>(st.revocations_requested));
  return served == kAlerts && st.rollbacks_completed > 0 ? 0 : 1;
}
