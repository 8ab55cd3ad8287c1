// Tests for the benchmark's own code: statistics, span self time, the
// tracer's timeline partition, and run-to-run determinism of tick metrics.
//
//   cmake --build <build> --target perfbench_tests && <build>/perfbench_tests
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "rt/scheduler.hpp"
#include "stats.hpp"
#include "svc/latency.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(HighestSupportedQuantile, NeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(highest_supported_quantile(10'000), 0.999);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(9'999), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(1'000), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(200), 0.95);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(100), 0.90);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(20), 0.50);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(19), 0.0);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(0), 0.0);
}

TEST(Quantile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(median(v), 3);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

TEST(CompletedPct, GiveUpsAndShedsCountAsFailures) {
  rvk::svc::TierRecorder rec({"gold", "bronze"});
  for (int i = 0; i < 150; ++i) rec.record_latency(0, 10);
  for (int i = 0; i < 30; ++i) rec.record_giveup(1);
  for (int i = 0; i < 20; ++i) rec.record_shed(0);
  const std::uint64_t offered = rec.offered(0) + rec.offered(1);
  ASSERT_EQ(offered, 200u);
  EXPECT_DOUBLE_EQ(completed_pct(offered, rec.completed(0) + rec.completed(1)),
                   75.0);
  EXPECT_DOUBLE_EQ(completed_pct(0, 0), 100.0);
}

Span make(std::uint64_t id, std::uint64_t parent, Ns start, Ns end,
          std::uint32_t weight = 1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start = start;
  s.end = end;
  s.weight = weight;
  return s;
}

TEST(SelfTimes, OverlappingChildrenAreCoveredOnce) {
  // Children overlap each other ([10,30] and [20,50]) and stick out of the
  // parent ([80,120]): covered = [10,50] + [80,100] = 60.
  const std::vector<Span> spans = {make(1, kNoSpan, 0, 100),
                                   make(2, 1, 10, 30), make(3, 1, 20, 50),
                                   make(4, 1, 80, 120)};
  const std::vector<SelfTime> st = self_times(spans);
  EXPECT_EQ(st[0].self, 40);
  EXPECT_EQ(st[1].self, 20);
  EXPECT_EQ(st[2].self, 30);
  EXPECT_EQ(st[3].self, 40);
}

TEST(SelfTimes, SampledChildStandsForUntimedCalls) {
  // A span standing for 10 calls of 2 ns takes 20 ns from its parent.
  const std::vector<Span> spans = {make(1, kNoSpan, 0, 100),
                                   make(2, 1, 10, 12, 10)};
  const std::vector<SelfTime> st = self_times(spans);
  EXPECT_EQ(st[0].self, 80);
  EXPECT_DOUBLE_EQ(st[1].weight, 10.0);
  EXPECT_DOUBLE_EQ(st[0].self + st[1].weight * st[1].self, 100.0);
}

TEST(SelfTimes, SampledChildCannotExceedItsParent) {
  // 10 x 5 ns would be 50 ns inside a 10 ns parent: scaled to fit.
  const std::vector<Span> spans = {make(1, kNoSpan, 0, 10),
                                   make(2, 1, 0, 5, 10)};
  const std::vector<SelfTime> st = self_times(spans);
  EXPECT_EQ(st[0].self, 0);
  EXPECT_DOUBLE_EQ(st[1].weight * st[1].self, 10.0);
}

TEST(Tracer, SelfTimesPartitionTheTimeline) {
  Tracer tr;
  {
    Scope window(&tr, SpanName::kWindow);
    rvk::rt::SchedulerConfig cfg;
    cfg.quantum = 3;
    rvk::rt::Scheduler sched(cfg);
    for (int t = 0; t < 3; ++t) {
      sched.spawn("t" + std::to_string(t), 5, [&tr, &sched] {
        Scope thread(&tr, SpanName::kThread);
        for (int i = 0; i < 20; ++i) {
          Scope body(&tr, SpanName::kBody);
          sched.yield_point();
          tr.step();
        }
      });
    }
    Scope run(&tr, SpanName::kRun);
    tr.begin_timeline(run.id());
    sched.run();
  }
  const std::vector<Span> spans = tr.take();
  std::size_t switches = 0;
  for (const Span& s : spans) switches += s.name == SpanName::kSwitch;
  EXPECT_GT(switches, 20u);  // quantum 3, 3 threads x 20 yields

  const LayerTimes lt = layer_times(spans);
  double total = 0;
  for (const double s : lt.self_s) total += s;
  EXPECT_NEAR(total, lt.timeline_s, 1e-9 * 4);  // ns rounding per layer
}

// Tick metrics of the end-to-end run, by name.
std::vector<std::pair<std::string, double>> ticks_of(const Report& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const Metric& m : r.metrics) {
    if (m.unit == "ticks" || m.unit == "%") out.emplace_back(m.name, m.value);
  }
  return out;
}

Options one_cycle(const std::string& workload, bool trace) {
  Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.001;  // one cycle
  o.trace = trace;
  return o;
}

TEST(Run, SameSeedSameTickMetrics) {
  for (const char* w : {"paper_writes", "open_blocking"}) {
    const Report a = run(one_cycle(w, false));
    const Report b = run(one_cycle(w, false));
    const auto ta = ticks_of(a);
    EXPECT_EQ(ta.size(), 6u) << w;
    EXPECT_EQ(ta, ticks_of(b)) << w;
    Options other = one_cycle(w, false);
    other.seed = 8;
    EXPECT_NE(ta, ticks_of(run(other))) << w;
  }
}

TEST(Run, TracedRunMatchesUntracedRun) {
  for (const char* w : {"paper_writes", "open_revocation"}) {
    const Report r = run(one_cycle(w, true));
    bool identity_checked = false;
    for (const Check& c : r.checks) {
      EXPECT_TRUE(c.ok) << w << ": " << c.name << " " << c.detail;
      identity_checked =
          identity_checked || c.name.find("traced run ==") != std::string::npos;
    }
    EXPECT_TRUE(identity_checked) << w;
    EXPECT_NE(r.find("trace.unattributed_pct"), nullptr);
  }
}

}  // namespace
}  // namespace perfbench
