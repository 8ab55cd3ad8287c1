#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "harness/workload.hpp"
#include "heap/heap.hpp"
#include "host.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "rt/domain.hpp"
#include "rt/scheduler.hpp"
#include "stats.hpp"
#include "svc/driver.hpp"
#include "trace.hpp"

namespace perfbench {

using rvk::Histogram;
using rvk::SplitMix64;
namespace core = rvk::core;
namespace harness = rvk::harness;
namespace heap = rvk::heap;
namespace obs = rvk::obs;
namespace rt = rvk::rt;
namespace svc = rvk::svc;

bool Report::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "open_revocation", "open_blocking", "paper_writes", "shard_ship"};
  return names;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Every tick metric and count of one window, in a fixed order: two runs of
// the same window are the same program iff their fingerprints are equal.
using Fingerprint = std::vector<std::pair<std::string, std::uint64_t>>;

std::string first_difference(const Fingerprint& a, const Fingerprint& b) {
  if (a.size() != b.size()) return "field count differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return a[i].first + " " + std::to_string(a[i].second) + " vs " +
             b[i].first + " " + std::to_string(b[i].second);
    }
  }
  return "";
}

struct WindowOut {
  double wall_s = 0;
  std::uint64_t sections = 0;  // committed synchronized sections
  std::uint64_t offered = 0;   // operations the window offered
  Fingerprint fp;              // empty when the window is not deterministic
  std::vector<Check> checks;
};

// Folds one outcome of the check `c.name` into the report's tally; the
// first failure's detail is kept.
void tally(Report& r, const Check& c) {
  for (Check& have : r.checks) {
    if (have.name != c.name) continue;
    if (have.ok && !c.ok) have = c;
    return;
  }
  r.checks.push_back(c);
}

// What the traced windows of one cycle count, beyond their fingerprints.
struct LayerCounts {
  std::uint64_t dispatches = 0;
  std::uint64_t spawns = 0;
  std::uint64_t entry_giveups = 0;
  std::uint64_t max_in_flight = 0;
  std::uint64_t inject_lag_max = 0;
  std::uint64_t heap_writes = 0;
  std::uint64_t heap_reads = 0;
  std::uint64_t remote_calls = 0;
  std::uint64_t dropped = 0;
  std::uint64_t mon_acquires = 0;
  std::uint64_t mon_contended = 0;
  std::uint64_t mon_timeouts = 0;
  double generate_s = 0;
  Histogram queue_wait_gold;  // ticks, gold arrival -> first dispatch
  Histogram entry_wait_high;  // ticks, §4.1 high thread at monitor -> body
  core::EngineStats engine;

  // Adds an engine's stats and its monitors' counters.
  void add_engine(core::Engine& e) {
    add_stats(e.stats());
    obs::Registry reg;
    e.publish_metrics(reg);
    for (const auto& entry : reg.entries()) {
      const std::string& n = entry->name;
      if (n.rfind("monitor.", 0) != 0) continue;
      auto ends = [&n](const std::string& suffix) {
        return n.size() >= suffix.size() &&
               n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0;
      };
      if (ends(".stats.acquires")) mon_acquires += entry->value;
      if (ends(".stats.contended")) mon_contended += entry->value;
      if (ends(".stats.timeouts")) mon_timeouts += entry->value;
    }
  }

  // Adds what add_engine collected into `o`.
  void add_engine_counts(const LayerCounts& o) {
    add_stats(o.engine);
    mon_acquires += o.mon_acquires;
    mon_contended += o.mon_contended;
    mon_timeouts += o.mon_timeouts;
  }

 private:
  void add_stats(const core::EngineStats& s) {
    engine.sections_entered += s.sections_entered;
    engine.sections_committed += s.sections_committed;
    engine.rollbacks_completed += s.rollbacks_completed;
    engine.revocations_requested += s.revocations_requested;
    engine.revocations_lost_to_commit += s.revocations_lost_to_commit;
    engine.entry_aborts += s.entry_aborts;
    engine.log_appends += s.log_appends;
    engine.words_undone += s.words_undone;
  }
};

void add_engine_fp(Fingerprint& fp, const core::EngineStats& s) {
  fp.emplace_back("sections_entered", s.sections_entered);
  fp.emplace_back("sections_committed", s.sections_committed);
  fp.emplace_back("rollbacks", s.rollbacks_completed);
  fp.emplace_back("revocations_requested", s.revocations_requested);
  fp.emplace_back("revocations_lost_to_commit", s.revocations_lost_to_commit);
  fp.emplace_back("entry_aborts", s.entry_aborts);
  fp.emplace_back("log_appends", s.log_appends);
  fp.emplace_back("words_undone", s.words_undone);
}

std::uint64_t window_seed(std::uint64_t seed, int i) {
  SplitMix64 r(seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i + 1));
  return r.next();
}

// Calls into the heap layer from a traced section body: every
// kHeapSamplePeriod-th call is timed and recorded as a span standing for
// that many calls.  A sampled call is a few ns, less than a clock read, so
// the cost of the closing clock read is measured right after it, in the
// same (cold) state, and subtracted.
// Prime, so the sample does not alias with power-of-two periodic work such
// as undo-log chunk allocation.
constexpr std::uint32_t kHeapSamplePeriod = 1009;

template <typename F>
auto heap_call(Tracer* tr, std::uint32_t& countdown, SpanName name, F&& f) {
  if (tr == nullptr || --countdown != 0) return f();
  countdown = kHeapSamplePeriod;
  const Ns t0 = now_ns();
  auto v = f();
  const Ns t1 = now_ns();
  const Ns read = now_ns() - t1;
  tr->record(name, t0, std::max(t0, t1 - read), kHeapSamplePeriod);
  return v;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int default_windows() const = 0;
  // Everything before the first timed window except the warm-up window.
  // Repeatable: a later call rebuilds the same inputs.
  virtual void prepare(int windows, std::uint64_t seed) = 0;
  // Window i through the library's public entry point, untraced.
  virtual WindowOut run_window(int i) = 0;
  // The same window re-composed from the layers' public functions, with
  // spans; adds its counts to `lc`.
  virtual WindowOut run_traced(int i, Tracer& tr, LayerCounts& lc) = 0;
  // End-to-end tick metrics over the windows run while recording.
  virtual void tick_metrics(Report& r) = 0;

  // While on, finished windows are kept for tick_metrics; run() turns it
  // on for the first timed cycle.
  void set_recording(bool on) { recording_ = on; }

 protected:
  bool recording_ = false;
};

// ---------------------------------------------------------------------------
// open_revocation / open_blocking: svc::run_open_loop at rho = 95%.

// Mean section length of the default tier mix in ticks; the service
// saturates near one request per kMeanOps ticks (see bench/macro_open.cpp).
constexpr std::uint64_t kMeanOps = 88;
constexpr unsigned kRhoPct = 95;
constexpr std::uint64_t kOpenDuration = 80'000;  // ticks per window
constexpr std::size_t kGold = 0, kBronze = 2;

class OpenLoop final : public Workload {
 public:
  explicit OpenLoop(svc::Protocol p) : protocol_(p) {}

  // 64 windows: gold p50 sits between the uncontended and the blocked
  // modes under kBlocking, so it needs ~11,000 gold requests to settle
  // within a few percent across seeds.
  int default_windows() const override { return 64; }

  void prepare(int windows, std::uint64_t seed) override {
    cfgs_.clear();
    offered_.clear();
    for (int i = 0; i < windows; ++i) {
      svc::OpenLoopConfig cfg;
      cfg.arrivals.kind = svc::ArrivalKind::kPoisson;
      cfg.arrivals.rate = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(svc::kProbOne) * kRhoPct /
          (100 * kMeanOps));
      cfg.service.protocol = protocol_;
      cfg.duration = kOpenDuration;
      cfg.seed = window_seed(seed, i);
      cfgs_.push_back(cfg);
      // The schedule run_open_loop will generate, counted per tier: the
      // offered side of the outcome check.
      const svc::ArrivalSchedule plan =
          svc::generate(arrival_config(cfg), cfg.duration, cfg.seed);
      std::vector<std::uint64_t> per_tier(cfg.tiers.size(), 0);
      for (const svc::Arrival& a : plan.arrivals) ++per_tier[a.tier];
      offered_.push_back(per_tier);
    }
  }

  WindowOut run_window(int i) override {
    const auto t0 = Clock::now();
    const svc::OpenLoopResult r = svc::run_open_loop(cfg(i));
    return finish(i, r, seconds_since(t0));
  }

  // svc::run_open_loop, step for step (src/svc/driver.cpp), with spans.
  WindowOut run_traced(int i, Tracer& tr, LayerCounts& lc) override {
    const svc::OpenLoopConfig& c = cfg(i);
    const auto t0 = Clock::now();
    Scope window(&tr, SpanName::kWindow);

    const svc::ArrivalConfig acfg = arrival_config(c);
    std::vector<std::string> tier_names;
    for (const svc::TierSpec& t : c.tiers) tier_names.push_back(t.name);
    const Ns g0 = now_ns();
    svc::ArrivalSchedule plan;
    {
      Scope g(&tr, SpanName::kGenerate);
      plan = svc::generate(acfg, c.duration, c.seed);
    }
    lc.generate_s += 1e-9 * static_cast<double>(now_ns() - g0);

    rt::SchedulerConfig scfg;
    scfg.quantum = c.quantum;
    scfg.stack_size = c.stack_size;
    scfg.strict_priority = true;
    rt::Scheduler sched(scfg);
    svc::BankService service(sched, c.service);

    svc::OpenLoopResult res{svc::TierRecorder(std::move(tier_names))};
    res.arrivals = plan.arrivals.size();
    res.ledger_initial = service.ledger_total();

    int in_flight = 0;
    std::uint64_t in_flight_hw = 0;
    // Observe every yield point, the library's included, through the
    // scheduler's step hook.
    sched.set_step_hook([&tr](rt::VThread*) { tr.step(); });

    sched.spawn("injector", rt::kMaxPriority, [&] {
      Scope inject(&tr, SpanName::kInject);
      std::uint64_t req = 0;
      for (const svc::Arrival& a : plan.arrivals) {
        ++req;
        if (a.tick > sched.now()) {
          Scope s(&tr, SpanName::kSleep);
          sched.sleep_for(a.tick - sched.now());
        }
        lc.inject_lag_max = std::max(lc.inject_lag_max, sched.now() - a.tick);
        const svc::TierSpec& tier = c.tiers[a.tier];
        if (in_flight >= c.max_in_flight) {
          res.recorder.record_shed(a.tier);
          continue;
        }
        ++in_flight;
        in_flight_hw =
            std::max(in_flight_hw, static_cast<std::uint64_t>(in_flight));
        Scope sp(&tr, SpanName::kSpawn, req);
        ++lc.spawns;
        sched.spawn(tier.name, tier.priority, [&, a, req] {
          Scope request(&tr, SpanName::kRequest, req);
          if (a.tier == kGold) lc.queue_wait_gold.record(sched.now() - a.tick);
          const svc::TierSpec& t = c.tiers[a.tier];
          SplitMix64 rng(a.seed);
          const std::uint64_t deadline = a.tick + t.deadline_ticks;
          const std::uint64_t now = sched.now();
          const std::uint64_t budget = deadline > now ? deadline - now : 0;
          bool ok = false;
          {
            Scope ex(&tr, SpanName::kExecute, req);
            ok = service.execute(t.section_ops, budget, rng);
          }
          if (ok) {
            res.recorder.record_latency(a.tier, sched.now() - a.tick);
          } else {
            res.recorder.record_giveup(a.tier);
          }
          --in_flight;
        });
      }
    });

    {
      Scope run(&tr, SpanName::kRun);
      tr.begin_timeline(run.id());
      sched.run();
    }

    res.total_ticks = sched.now();
    res.rollbacks = service.rollbacks();
    res.entry_giveups = service.entry_giveups();
    res.max_in_flight_seen = in_flight_hw;
    res.ledger_final = service.ledger_total();

    lc.dispatches += sched.dispatches();
    lc.entry_giveups += res.entry_giveups;
    lc.max_in_flight = std::max(lc.max_in_flight, in_flight_hw);
    if (service.engine() != nullptr) lc.add_engine(*service.engine());
    return finish(i, res, seconds_since(t0));
  }

  void tick_metrics(Report& r) override {
    Histogram gold, bronze;
    std::uint64_t offered = 0, completed = 0, span = 0;
    double gold_sum = 0;
    for (const auto& [res_offered, res_completed, res_span, g, b] : first_) {
      offered += res_offered;
      completed += res_completed;
      span += res_span;
      gold.merge(g);
      bronze.merge(b);
      gold_sum += g.mean() * static_cast<double>(g.count());
    }
    std::printf("gold completed n=%llu (p99 needs >= 1000), bronze n=%llu\n",
                static_cast<unsigned long long>(gold.count()),
                static_cast<unsigned long long>(bronze.count()));
    tally(r, {"gold sample supports p99", gold.count() >= 1000,
              "n=" + std::to_string(gold.count())});
    r.metrics.push_back({"completed_pct", completed_pct(offered, completed), "%"});
    r.metrics.push_back(
        {"hi_p50_ticks", static_cast<double>(gold.percentile(0.50)), "ticks"});
    r.metrics.push_back(
        {"hi_p99_ticks", static_cast<double>(gold.percentile(0.99)), "ticks"});
    r.metrics.push_back(
        {"lo_p99_ticks", static_cast<double>(bronze.percentile(0.99)), "ticks"});
    r.metrics.push_back({"span_ticks", static_cast<double>(span), "ticks"});
    // Open loop: the gold group's elapsed ticks are the ticks its requests
    // spent in the system (sum of gold latencies).
    r.metrics.push_back({"hi_span_ticks", gold_sum, "ticks"});
  }

 private:
  struct First {
    std::uint64_t offered, completed, span;
    Histogram gold, bronze;
  };

  const svc::OpenLoopConfig& cfg(int i) const {
    return cfgs_[static_cast<std::size_t>(i)];
  }

  static svc::ArrivalConfig arrival_config(const svc::OpenLoopConfig& c) {
    svc::ArrivalConfig a = c.arrivals;
    a.tier_weights.clear();
    for (const svc::TierSpec& t : c.tiers) a.tier_weights.push_back(t.weight);
    return a;
  }

  WindowOut finish(int i, const svc::OpenLoopResult& r, double wall_s) {
    WindowOut w;
    w.wall_s = wall_s;
    w.offered = r.arrivals;
    const svc::TierRecorder& rec = r.recorder;
    const std::vector<std::uint64_t>& sched_offered =
        offered_[static_cast<std::size_t>(i)];
    std::uint64_t sched_total = 0;
    bool tiers_ok = true;
    std::string detail;
    for (std::size_t t = 0; t < rec.tier_count(); ++t) {
      w.sections += rec.completed(t);
      sched_total += sched_offered[t];
      if (sched_offered[t] != rec.completed(t) + rec.giveups(t) + rec.sheds(t)) {
        tiers_ok = false;
        detail = rec.name(t) + ": offered " + std::to_string(sched_offered[t]) +
                 " != completed+giveups+sheds " +
                 std::to_string(rec.offered(t));
      }
    }
    if (sched_total != r.arrivals) {
      tiers_ok = false;
      detail = "schedule offered " + std::to_string(sched_total) +
               " != run arrivals " + std::to_string(r.arrivals);
    }
    w.checks.push_back({"offered == completed + giveups + sheds per tier",
                        tiers_ok, detail});
    w.checks.push_back({"ledger conserved (BankService::ledger_total)",
                        r.ledger_final == r.ledger_initial,
                        std::to_string(r.ledger_initial) + " -> " +
                            std::to_string(r.ledger_final)});

    Fingerprint& fp = w.fp;
    fp.emplace_back("total_ticks", r.total_ticks);
    fp.emplace_back("arrivals", r.arrivals);
    fp.emplace_back("rollbacks", r.rollbacks);
    fp.emplace_back("entry_giveups", r.entry_giveups);
    fp.emplace_back("max_in_flight", r.max_in_flight_seen);
    for (std::size_t t = 0; t < rec.tier_count(); ++t) {
      const Histogram& h = rec.latency(t);
      fp.emplace_back(rec.name(t) + ".completed", rec.completed(t));
      fp.emplace_back(rec.name(t) + ".giveups", rec.giveups(t));
      fp.emplace_back(rec.name(t) + ".sheds", rec.sheds(t));
      fp.emplace_back(rec.name(t) + ".p50", h.percentile(0.50));
      fp.emplace_back(rec.name(t) + ".p99", h.percentile(0.99));
      fp.emplace_back(rec.name(t) + ".max", h.max());
      fp.emplace_back(rec.name(t) + ".sum",
                      static_cast<std::uint64_t>(
                          h.mean() * static_cast<double>(h.count()) + 0.5));
    }

    if (recording_) {
      std::uint64_t completed = 0, offered = 0;
      for (std::size_t t = 0; t < rec.tier_count(); ++t) {
        completed += rec.completed(t);
        offered += sched_offered[t];
      }
      first_.push_back(First{offered, completed, r.total_ticks,
                             rec.latency(kGold), rec.latency(kBronze)});
    }
    return w;
  }

  svc::Protocol protocol_;
  std::vector<svc::OpenLoopConfig> cfgs_;
  std::vector<std::vector<std::uint64_t>> offered_;  // per window, per tier
  std::vector<First> first_;                          // first cycle
};

// ---------------------------------------------------------------------------
// paper_writes: harness::run_workload(kModified), §4.1 at 60% writes.

constexpr int kPaperSections = 25;  // per thread and window

harness::WorkloadParams paper_params(std::uint64_t seed) {
  harness::WorkloadParams p;  // 2 high + 8 low, 4k / 20k ops, quantum 20k
  p.sections_per_thread = kPaperSections;
  p.write_percent = 60;
  p.seed = seed;
  return p;
}

class PaperWrites final : public Workload {
 public:
  int default_windows() const override { return 32; }

  void prepare(int windows, std::uint64_t seed) override {
    seeds_.clear();
    for (int i = 0; i < windows; ++i) seeds_.push_back(window_seed(seed, i));
  }

  WindowOut run_window(int i) override {
    const auto t0 = Clock::now();
    const harness::WorkloadResult r =
        harness::run_workload(harness::VmKind::kModified, params(i));
    return finish(i, r, seconds_since(t0));
  }

  // harness::run_workload(kModified), step for step
  // (src/harness/workload.cpp), with spans.
  WindowOut run_traced(int i, Tracer& tr, LayerCounts& lc) override {
    const harness::WorkloadParams p = params(i);
    const auto t0 = Clock::now();
    Scope window(&tr, SpanName::kWindow);

    rt::SchedulerConfig scfg;
    scfg.quantum = p.scheduler_quantum;
    rt::Scheduler sched(scfg);
    sched.set_step_hook([&tr](rt::VThread*) { tr.step(); });
    obs::on_run_begin();

    std::optional<core::Engine> engine;
    engine.emplace(sched, p.engine);
    core::RevocableMonitor* rmon = engine->make_monitor("shared");

    heap::Heap h;
    heap::HeapArray<std::uint64_t>* arr =
        h.alloc_array<std::uint64_t>(p.array_len);

    struct Times {
      std::uint64_t tick_start = 0, tick_end = 0;
      bool high = false;
    };
    const int n = p.high_threads + p.low_threads;
    std::vector<Times> times(static_cast<std::size_t>(n));
    std::uint64_t checksum = 0;
    std::uint64_t sections_executed = 0;

    auto thread_body = [&](int index, bool high) {
      Scope thread(&tr, SpanName::kThread, static_cast<std::uint64_t>(index + 1));
      SplitMix64 rng(p.seed ^ (0x9E3779B97F4A7C15ULL *
                               static_cast<std::uint64_t>(index + 1)));
      Times& tm = times[static_cast<std::size_t>(index)];
      tm.high = high;
      tm.tick_start = sched.now();
      std::uint32_t heap_calls = kHeapSamplePeriod;

      const std::uint64_t iters = high ? p.high_iters : p.low_iters;
      for (int s = 0; s < p.sections_per_thread; ++s) {
        {
          Scope sl(&tr, SpanName::kSleep);
          sched.sleep_for(rng.next_below(2 * p.avg_pause_ticks + 1));
        }
        const std::uint64_t arrived = sched.now();
        bool entered = false;

        const std::uint64_t section_seed = rng.next();
        std::uint64_t acc = 0;
        auto section = [&] {
          Scope body(&tr, SpanName::kBody);
          if (!entered) {
            entered = true;
            if (high) lc.entry_wait_high.record(sched.now() - arrived);
          }
          acc = 0;
          SplitMix64 srng(section_seed);
          unsigned wacc = 50;
          for (std::uint64_t k = 0; k < iters; ++k) {
            const std::size_t idx =
                static_cast<std::size_t>(srng.next_below(p.array_len));
            acc = (acc ^ (acc >> 17)) * 0x9E3779B97F4A7C15ULL + k;
            acc ^= acc >> 29;
            wacc += p.write_percent;
            if (wacc >= 100) {
              wacc -= 100;
              ++lc.heap_writes;
              heap_call(&tr, heap_calls, SpanName::kHeapSet, [&] {
                arr->set(idx, acc);
                return 0;
              });
            } else {
              ++lc.heap_reads;
              acc += heap_call(&tr, heap_calls, SpanName::kHeapGet,
                               [&] { return arr->get(idx); });
            }
            sched.yield_point();
          }
        };

        {
          Scope sync(&tr, SpanName::kSynchronized);
          engine->synchronized(*rmon, section);
        }
        checksum += acc;
        ++sections_executed;
      }
      tm.tick_end = sched.now();
    };

    for (int k = 0; k < n; ++k) {
      const bool high = k < p.high_threads;
      Scope sp(&tr, SpanName::kSpawn);
      ++lc.spawns;
      sched.spawn((high ? "high-" : "low-") + std::to_string(k),
                  high ? p.high_priority : p.low_priority,
                  [&thread_body, k, high] { thread_body(k, high); });
    }
    {
      Scope run(&tr, SpanName::kRun);
      tr.begin_timeline(run.id());
      sched.run();
    }

    harness::WorkloadResult r;
    std::uint64_t hi_t0 = UINT64_MAX, hi_t1 = 0, all_t0 = UINT64_MAX,
                  all_t1 = 0;
    for (const Times& tm : times) {
      all_t0 = std::min(all_t0, tm.tick_start);
      all_t1 = std::max(all_t1, tm.tick_end);
      if (tm.high) {
        hi_t0 = std::min(hi_t0, tm.tick_start);
        hi_t1 = std::max(hi_t1, tm.tick_end);
      }
    }
    r.high_elapsed_ticks = hi_t1 - hi_t0;
    r.overall_elapsed_ticks = all_t1 - all_t0;
    r.engine = engine->stats();
    r.sections_executed = sections_executed;
    r.checksum = checksum;

    lc.dispatches += sched.dispatches();
    lc.add_engine(*engine);
    return finish(i, r, seconds_since(t0));
  }

  void tick_metrics(Report& r) override {
    std::uint64_t span = 0, hi_span = 0, expected = 0, executed = 0;
    std::vector<double> hi, all;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      const harness::WorkloadResult& w = first_[i];
      expected += expected_sections(static_cast<int>(i));
      executed += w.sections_executed;
      span += w.overall_elapsed_ticks;
      hi_span += w.high_elapsed_ticks;
      hi.push_back(static_cast<double>(w.high_elapsed_ticks));
      all.push_back(static_cast<double>(w.overall_elapsed_ticks));
    }
    // Closed loop with no per-request latency: the latency fields carry the
    // per-window group elapsed ticks (median, and the worst window).
    r.metrics.push_back({"completed_pct", completed_pct(expected, executed), "%"});
    r.metrics.push_back({"hi_p50_ticks", median(hi), "ticks"});
    r.metrics.push_back({"hi_p99_ticks", quantile(hi, 1.0), "ticks"});
    r.metrics.push_back({"lo_p99_ticks", quantile(all, 1.0), "ticks"});
    r.metrics.push_back({"span_ticks", static_cast<double>(span), "ticks"});
    r.metrics.push_back({"hi_span_ticks", static_cast<double>(hi_span), "ticks"});
  }

 private:
  harness::WorkloadParams params(int i) const {
    return paper_params(seeds_[static_cast<std::size_t>(i)]);
  }

  std::uint64_t expected_sections(int i) const {
    const harness::WorkloadParams p = params(i);
    return static_cast<std::uint64_t>((p.high_threads + p.low_threads) *
                                      p.sections_per_thread);
  }

  WindowOut finish(int i, const harness::WorkloadResult& r, double wall_s) {
    const std::uint64_t expected = expected_sections(i);
    WindowOut w;
    w.wall_s = wall_s;
    w.sections = r.sections_executed;
    w.offered = expected;
    w.checks.push_back({"every scheduled section committed",
                        r.sections_executed == expected,
                        std::to_string(r.sections_executed) + " of " +
                            std::to_string(expected)});
    w.fp.emplace_back("high_elapsed_ticks", r.high_elapsed_ticks);
    w.fp.emplace_back("overall_elapsed_ticks", r.overall_elapsed_ticks);
    w.fp.emplace_back("sections", r.sections_executed);
    w.fp.emplace_back("checksum", r.checksum);
    add_engine_fp(w.fp, r.engine);
    if (recording_) first_.push_back(r);
    return w;
  }

  std::vector<std::uint64_t> seeds_;
  std::vector<harness::WorkloadResult> first_;
};

// ---------------------------------------------------------------------------
// shard_ship: the shard_scale tier mix on 2 kOsThreads shards, every 16th
// section shipped to the neighbour through DomainSet::remote_call.

struct ShipTier {
  const char* name;
  int priority;
  int ops;
  std::uint64_t sections;  // per window, over all shards
};
constexpr ShipTier kShipTiers[] = {
    {"gold", 9, 4, 4000},
    {"silver", 6, 24, 3000},
    {"bronze", 3, 160, 1000},
};
constexpr int kShipWorkersPerTier = 4;
constexpr int kShipAccounts = 64;
constexpr std::uint64_t kRemoteEvery = 16;

class ShardShip final : public Workload {
 public:
  explicit ShardShip(unsigned nproc) : shards_(std::min(2u, nproc)) {}

  int default_windows() const override { return 16; }

  void prepare(int windows, std::uint64_t seed) override {
    seeds_.clear();
    for (int i = 0; i < windows; ++i) seeds_.push_back(window_seed(seed, i));
  }

  WindowOut run_window(int i) override { return ship(i, nullptr, nullptr); }

  WindowOut run_traced(int i, Tracer& tr, LayerCounts& lc) override {
    return ship(i, &tr, &lc);
  }

  void tick_metrics(Report& r) override {
    Histogram gold, bronze;
    std::uint64_t span = 0, hi_span = 0, done = 0, scheduled = 0;
    for (const First& f : first_) {
      gold.merge(f.gold);
      bronze.merge(f.bronze);
      span += f.span;
      hi_span += f.hi_span;
      done += f.done;
      scheduled += f.scheduled;
    }
    // Section latency on the serving shard (ticks it interleaved); these
    // depend on OS timing, unlike the single-shard workloads.
    r.metrics.push_back({"completed_pct", completed_pct(scheduled, done), "%"});
    r.metrics.push_back(
        {"hi_p50_ticks", static_cast<double>(gold.percentile(0.50)), "ticks"});
    r.metrics.push_back(
        {"hi_p99_ticks", static_cast<double>(gold.percentile(0.99)), "ticks"});
    r.metrics.push_back(
        {"lo_p99_ticks", static_cast<double>(bronze.percentile(0.99)), "ticks"});
    r.metrics.push_back({"span_ticks", static_cast<double>(span), "ticks"});
    r.metrics.push_back({"hi_span_ticks", static_cast<double>(hi_span), "ticks"});
  }

 private:
  struct Shard {
    std::unique_ptr<core::Engine> engine;
    std::unique_ptr<heap::Heap> heap;
    std::vector<heap::HeapObject*> accounts;
    Histogram gold, bronze;  // section ticks on this shard
    std::uint64_t span = 0, gold_end = 0, done = 0;
    std::uint64_t remote_calls = 0, reads = 0, writes = 0, spawns = 0,
                  dispatches = 0;
    std::uint32_t heap_calls = kHeapSamplePeriod;
    std::uint64_t root = kNoSpan;
    LayerCounts engine_counts;
  };
  struct First {
    Histogram gold, bronze;
    std::uint64_t span, hi_span, done, scheduled;
  };

  static void section(Shard& sh, const ShipTier& tier, std::uint64_t pick,
                      Tracer* tr) {
    heap::HeapObject* acct =
        sh.accounts[pick % static_cast<std::uint64_t>(kShipAccounts)];
    rt::Scheduler& sched = sh.engine->scheduler();
    const std::uint64_t t0 = sched.now();
    {
      Scope sync(tr, SpanName::kSynchronized);
      sh.engine->synchronized(acct, [&] {
        for (int k = 0; k < tier.ops; ++k) {
          ++sh.reads;
          ++sh.writes;
          const auto v = heap_call(tr, sh.heap_calls, SpanName::kHeapGet,
                                   [&] { return acct->get<std::uint64_t>(0); });
          heap_call(tr, sh.heap_calls, SpanName::kHeapSet, [&] {
            acct->set<std::uint64_t>(0, v + 1);
            return 0;
          });
          sched.yield_point();
        }
      });
    }
    const std::uint64_t ticks = sched.now() - t0;
    if (&tier == &kShipTiers[0]) sh.gold.record(ticks);
    if (&tier == &kShipTiers[2]) sh.bronze.record(ticks);
    ++sh.done;
  }

  WindowOut ship(int i, Tracer* tr, LayerCounts* lc) {
    const std::uint64_t seed = seeds_[static_cast<std::size_t>(i)];
    const auto t0 = Clock::now();
    Scope window(tr, SpanName::kWindow);

    rt::DomainSet::Config cfg;
    cfg.shards = shards_;
    cfg.mode = rt::DomainSet::Mode::kOsThreads;
    cfg.sched.quantum = 50;
    cfg.sched.stack_size = 32 * 1024;
    rt::DomainSet set(cfg);
    std::vector<Shard> shards(shards_);
    const std::uint64_t nshards = shards_;
    // The shard threads share the CPU the window starts on.  Unpinned, a
    // cross-shard round trip waits for the peer's vCPU to wake, and on a
    // shared host that wait swung the window rate by 2x as other tenants'
    // load came and went (README.md, "Noise").  Pinned, the workload
    // measures shipping between real threads, not parallel speedup.
    const int cpu = sched_getcpu();

    set.start(
        [&](rt::Domain& d) {
          if (cpu >= 0) {
            cpu_set_t mask;
            CPU_ZERO(&mask);
            CPU_SET(cpu, &mask);
            pthread_setaffinity_np(pthread_self(), sizeof mask, &mask);
          }
          Shard& me = shards[d.id()];
          if (tr != nullptr) {
            me.root = tr->open(SpanName::kShard);
            tr->begin_timeline(me.root);
            d.sched().set_step_hook([tr](rt::VThread*) { tr->step(); });
          }
          me.heap = std::make_unique<heap::Heap>();
          {
            // One engine constructor at a time.  An Engine registers its
            // deflation veto in the process-wide MonitorTable before it
            // switches the table to its locked multi-shard mode, so the
            // first two shard engines of a process, built at once, race on
            // the veto map and can corrupt it (a library defect: README,
            // "Known defects").
            std::lock_guard<std::mutex> lock(engine_build_mu_);
            me.engine = std::make_unique<core::Engine>(d.sched());
          }
          for (int a = 0; a < kShipAccounts; ++a) {
            me.accounts.push_back(me.heap->alloc("acct" + std::to_string(a), 8));
          }
          for (std::size_t ti = 0; ti < std::size(kShipTiers); ++ti) {
            const ShipTier& tier = kShipTiers[ti];
            const std::uint64_t per_worker =
                tier.sections / nshards / kShipWorkersPerTier;
            for (int w = 0; w < kShipWorkersPerTier; ++w) {
              const std::uint64_t wseed =
                  seed ^ (0x9e3779b97f4a7c15ull * (d.id() + 1)) ^
                  (0xbf58476d1ce4e5b9ull * static_cast<std::uint64_t>(w + 1)) ^
                  (0x94d049bb133111ebull * (ti + 1));
              Scope sp(tr, SpanName::kSpawn);
              ++me.spawns;
              d.sched().spawn(
                  std::string(tier.name) + std::to_string(w), tier.priority,
                  [&set, &shards, tr, nshards, per_worker, wseed,
                   tp = &tier, shard_id = d.id()] {
                    const ShipTier& tier = *tp;
                    Scope worker(tr, SpanName::kWorker);
                    Shard& mine = shards[shard_id];
                    std::uint64_t x = wseed | 1;
                    for (std::uint64_t k = 0; k < per_worker; ++k) {
                      x ^= x << 13;
                      x ^= x >> 7;
                      x ^= x << 17;
                      const std::uint64_t pick = x;
                      if (nshards > 1 && k % kRemoteEvery == kRemoteEvery - 1) {
                        const auto target =
                            static_cast<std::uint16_t>((shard_id + 1) % nshards);
                        const std::uint64_t req = (shard_id + 1ull) << 32 | k;
                        Scope rc(tr, SpanName::kRemoteCall, req);
                        ++mine.remote_calls;
                        set.remote_call(target, tier.priority, tier.name,
                                        [&, pick, target, req] {
                                          Scope helper(tr, SpanName::kHelper,
                                                       req);
                                          section(shards[target], tier, pick,
                                                  tr);
                                        });
                      } else {
                        section(mine, tier, pick, tr);
                      }
                    }
                    if (tp == &kShipTiers[0]) {
                      mine.gold_end = std::max(mine.gold_end,
                                               mine.engine->scheduler().now());
                    }
                  });
            }
          }
        },
        [&](rt::Domain& d) {
          Shard& me = shards[d.id()];
          me.span = d.sched().now();
          me.dispatches = d.sched().dispatches();
          if (lc != nullptr) me.engine_counts.add_engine(*me.engine);
          me.engine.reset();
          if (tr != nullptr) tr->close(me.root);
        });
    {
      Scope wait(tr, SpanName::kMainWait);
      set.join();
    }

    std::uint64_t scheduled = 0;
    for (const ShipTier& t : kShipTiers) scheduled += t.sections;
    First f{Histogram(), Histogram(), 0, 0, 0, scheduled};
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const Shard& sh = shards[s];
      f.gold.merge(sh.gold);
      f.bronze.merge(sh.bronze);
      f.span = std::max(f.span, sh.span);
      f.hi_span = std::max(f.hi_span, sh.gold_end);
      f.done += sh.done;
      if (lc != nullptr) {
        lc->add_engine_counts(sh.engine_counts);
        lc->dispatches += sh.dispatches;
        lc->spawns += sh.spawns;
        lc->remote_calls += sh.remote_calls;
        lc->heap_reads += sh.reads;
        lc->heap_writes += sh.writes;
        lc->dropped += set.domain(s).dropped();
      }
    }

    WindowOut w;
    w.wall_s = seconds_since(t0);
    w.sections = f.done;
    w.offered = scheduled;
    w.checks.push_back({"shard_ship section count", f.done == scheduled,
                        std::to_string(f.done) + " of " +
                            std::to_string(scheduled)});
    if (recording_) first_.push_back(f);
    return w;
  }

  std::size_t shards_;
  std::mutex engine_build_mu_;
  std::vector<std::uint64_t> seeds_;
  std::vector<First> first_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned nproc) {
  if (name == "open_revocation") {
    return std::make_unique<OpenLoop>(svc::Protocol::kRevocation);
  }
  if (name == "open_blocking") {
    return std::make_unique<OpenLoop>(svc::Protocol::kBlocking);
  }
  if (name == "paper_writes") return std::make_unique<PaperWrites>();
  if (name == "shard_ship") return std::make_unique<ShardShip>(nproc);
  return nullptr;
}

// ---------------------------------------------------------------------------
// The run protocol.

void print_spread(const char* what, const std::vector<double>& v,
                  const char* unit) {
  std::printf("  %-22s min %.6g  median %.6g  max %.6g %s  (n=%zu)\n", what,
              quantile(v, 0.0), median(v), quantile(v, 1.0), unit, v.size());
}

// Set-ups per untraced run; setup_s is their median.  The first runs before
// the timed phase, the others at even intervals through it, so that they
// sample the host's slow and fast states (README.md, "Noise") in the same
// mix as the timed windows do.
constexpr int kSetups = 15;

// Folds a window's checks into the report; its operations count as failed
// when one of them failed.
void absorb(Report& r, const WindowOut& w) {
  bool ok = true;
  for (const Check& c : w.checks) {
    tally(r, c);
    ok = ok && c.ok;
  }
  r.attempted += w.offered;
  if (!ok) r.failed += w.offered;
}

// `w` ran the same program as `ref` iff their fingerprints agree.
void check_same(Report& r, const std::string& what, int i, const WindowOut& w,
                const WindowOut& ref) {
  if (w.fp.empty()) return;
  const bool ok = w.fp == ref.fp;
  tally(r, {what, ok,
            ok ? "" : "window " + std::to_string(i) + ": " +
                          first_difference(w.fp, ref.fp)});
  if (!ok && std::all_of(w.checks.begin(), w.checks.end(),
                         [](const Check& c) { return c.ok; })) {
    r.failed += w.offered;
  }
}

}  // namespace

Report run(const Options& opt) {
  const auto process_start = Clock::now();
  const HostInfo host = host_info();
  std::unique_ptr<Workload> wl = make_workload(opt.workload, host.nproc);
  if (wl == nullptr) throw std::invalid_argument("unknown workload " + opt.workload);
  const int windows = wl->default_windows();

  Report r;
  Tracer tracer;

  // One set-up: schedules and configuration, then one untimed warm-up
  // window (which also builds and tears down every runtime object once).
  std::vector<double> setup_s;
  auto set_up = [&](Clock::time_point t0) {
    wl->set_recording(false);
    wl->prepare(windows, opt.seed);
    const WindowOut w = wl->run_window(0);
    setup_s.push_back(seconds_since(t0));
    absorb(r, w);
  };
  set_up(process_start);  // the first is timed from the start of the run

  std::printf("host: nproc=%u cpu=\"%s\" kernel=\"%s\"\n", host.nproc,
              host.cpu_model.c_str(), host.kernel.c_str());
  std::printf("probe before: alu %.4f ns/step\n", alu_probe_ns_per_step());
  std::printf("workload %s seed %llu seconds %.3g trace %d, %d windows/cycle\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, windows);

  std::vector<double> rates, walls;
  auto note = [&](const WindowOut& w) {
    walls.push_back(w.wall_s);
    rates.push_back(static_cast<double>(w.sections) / w.wall_s);
  };

  if (!opt.trace) {
    std::vector<WindowOut> ref;  // the first cycle
    const auto t0 = Clock::now();
    for (int i = 0; i < windows || seconds_since(t0) < opt.seconds ||
                    setup_s.size() < kSetups;
         ++i) {
      const auto due = static_cast<std::size_t>(seconds_since(t0) /
                                                opt.seconds * kSetups);
      if (setup_s.size() < kSetups && setup_s.size() <= due) {
        set_up(Clock::now());
      }
      const int k = i % windows;
      wl->set_recording(i < windows);
      WindowOut w = wl->run_window(k);
      absorb(r, w);
      note(w);
      if (i < windows) {
        ref.push_back(std::move(w));
      } else {
        check_same(r, "same window, same ticks (tick identity)", k, w, ref[k]);
      }
    }
    std::printf("timed phase: %zu windows and %zu set-ups in %.3f s\n",
                walls.size(), setup_s.size() - 1, seconds_since(t0));
    print_spread("setup_s", setup_s, "s");
    std::printf("  setup_s quartiles: p25 %.6g  p50 %.6g  p75 %.6g s\n",
                quantile(setup_s, 0.25), median(setup_s),
                quantile(setup_s, 0.75));
    print_spread("window_s", walls, "s");
    print_spread("sections_per_s", rates, "1/s");
    std::printf("  sections_per_s quantiles: p25 %.6g  p50 %.6g  p75 %.6g  "
                "p90 %.6g 1/s\n",
                quantile(rates, 0.25), median(rates), quantile(rates, 0.75),
                quantile(rates, 0.90));

    r.metrics.push_back({"setup_s", median(setup_s), "s"});
    // The 90th percentile, not the median: on a shared host windows fall
    // into slow and fast states whose mix changes from run to run, so the
    // median of a run lands anywhere between them.  Interference only slows
    // a window down, and nearly every run has fast windows, so a high
    // percentile of the window rates moves least with the host; the 90th
    // still rests on a tenth of the windows (README.md, "Noise").
    r.metrics.push_back({"sections_per_s", quantile(rates, 0.90), "1/s"});
    r.metrics.push_back({"peak_rss_mb", usage_now().max_rss_mb, "MB"});
    wl->tick_metrics(r);
  } else {
    // Each window runs untraced, then traced: the untraced run is the
    // identity reference, the tracing-overhead baseline (measured next to
    // its traced twin, so drift over the process's life cancels) and, in
    // the first cycle, what the proc.* deltas cover.  Spans are analysed
    // cycle by cycle, so memory stays at one cycle's spans; the first
    // cycle's are kept for writing out.
    const auto t0 = Clock::now();
    std::vector<double> overhead;
    LayerCounts lc, scratch;
    Usage proc;
    LayerTimes lt;
    std::vector<Span> first_spans;
    constexpr SpanName kTimed[] = {SpanName::kSwitch,  SpanName::kSpawn,
                                   SpanName::kExecute, SpanName::kHeapSet,
                                   SpanName::kHeapGet, SpanName::kRemoteCall};
    std::vector<double> dur[std::size(kTimed)];
    int cycles = 0;
    wl->set_recording(true);
    do {
      for (int k = 0; k < windows; ++k) {
        const Usage u0 = usage_now();
        WindowOut ref_w = wl->run_window(k);
        const Usage u1 = usage_now();
        absorb(r, ref_w);
        if (cycles == 0) {
          proc.user_s += u1.user_s - u0.user_s;
          proc.sys_s += u1.sys_s - u0.sys_s;
          proc.minor_faults += u1.minor_faults - u0.minor_faults;
        }
        WindowOut w = wl->run_traced(k, tracer, cycles == 0 ? lc : scratch);
        absorb(r, w);
        note(w);
        check_same(r, "traced run == untraced run (ticks and counts)", k, w,
                   ref_w);
        overhead.push_back(w.wall_s / ref_w.wall_s);
      }
      wl->set_recording(false);
      std::vector<Span> spans = tracer.take();
      lt.add(layer_times(spans));
      for (std::size_t n = 0; n < std::size(kTimed); ++n) {
        const std::vector<double> d = durations(spans, kTimed[n]);
        dur[n].insert(dur[n].end(), d.begin(), d.end());
      }
      if (cycles == 0) first_spans = std::move(spans);
      ++cycles;
    } while (seconds_since(t0) < opt.seconds);
    std::printf("traced phase: %d cycles (%zu windows) in %.3f s, %zu spans "
                "per cycle\n",
                cycles, walls.size(), seconds_since(t0), first_spans.size());
    print_spread("traced window_s", walls, "s");

    const double per_cycle = 1.0 / cycles;
    double src_self = 0;
    std::printf("self time per cycle by layer:");
    for (std::size_t l = 0; l < lt.layers.size(); ++l) {
      std::printf(" %s=%.4fs", lt.layers[l].c_str(), lt.self_s[l] * per_cycle);
      if (lt.layers[l] != "bench") src_self += lt.self_s[l];
    }
    std::printf(" of %.4fs traced\n", lt.timeline_s * per_cycle);

    const core::EngineStats& e = lc.engine;
    auto M = [&r](const char* name, double v, const char* unit) {
      r.metrics.push_back({name, v, unit});
    };
    auto med_ns = [&](SpanName n) {
      for (std::size_t k = 0; k < std::size(kTimed); ++k) {
        if (kTimed[k] == n) return median(dur[k]);
      }
      return 0.0;
    };
    auto tail = [](const Histogram& h) {
      return static_cast<double>(
          h.percentile(highest_supported_quantile(h.count())));
    };
    M("rt.dispatches", static_cast<double>(lc.dispatches), "count");
    M("rt.switch_ns", med_ns(SpanName::kSwitch), "ns");
    M("rt.spawns", static_cast<double>(lc.spawns), "count");
    M("rt.spawn_ns", med_ns(SpanName::kSpawn), "ns");
    M("rt.queue_wait_ticks_p99", tail(lc.queue_wait_gold), "ticks");
    M("rt.self_s", lt.self_of("rt") * per_cycle, "s");
    M("svc.generate_s", lc.generate_s, "s");
    M("svc.execute_us_p50", 1e-3 * med_ns(SpanName::kExecute), "us");
    M("svc.entry_giveups", static_cast<double>(lc.entry_giveups), "count");
    M("svc.max_in_flight", static_cast<double>(lc.max_in_flight), "count");
    M("svc.inject_lag_ticks_max", static_cast<double>(lc.inject_lag_max), "ticks");
    M("svc.self_s", lt.self_of("svc") * per_cycle, "s");
    M("core.sections_entered", static_cast<double>(e.sections_entered), "count");
    M("core.sections_committed", static_cast<double>(e.sections_committed), "count");
    M("core.commit_ratio",
      e.sections_entered == 0
          ? 0.0
          : static_cast<double>(e.sections_committed) /
                static_cast<double>(e.sections_entered),
      "ratio");
    M("core.rollbacks", static_cast<double>(e.rollbacks_completed), "count");
    M("core.revocations_requested", static_cast<double>(e.revocations_requested), "count");
    M("core.revocations_lost_to_commit",
      static_cast<double>(e.revocations_lost_to_commit), "count");
    M("core.entry_aborts", static_cast<double>(e.entry_aborts), "count");
    M("core.self_s", lt.self_of("core") * per_cycle, "s");
    M("log.appends", static_cast<double>(e.log_appends), "count");
    M("log.words_undone", static_cast<double>(e.words_undone), "count");
    M("heap.writes", static_cast<double>(lc.heap_writes), "count");
    M("heap.reads", static_cast<double>(lc.heap_reads), "count");
    M("heap.write_ns", med_ns(SpanName::kHeapSet), "ns");
    M("heap.read_ns", med_ns(SpanName::kHeapGet), "ns");
    M("monitor.acquires", static_cast<double>(lc.mon_acquires), "count");
    M("monitor.contended_pct",
      lc.mon_acquires == 0 ? 0.0
                           : 100.0 * static_cast<double>(lc.mon_contended) /
                                 static_cast<double>(lc.mon_acquires),
      "%");
    M("monitor.timeouts", static_cast<double>(lc.mon_timeouts), "count");
    M("monitor.entry_wait_ticks_p99", tail(lc.entry_wait_high), "ticks");
    M("domain.remote_calls", static_cast<double>(lc.remote_calls), "count");
    M("domain.remote_call_us_p50", 1e-3 * med_ns(SpanName::kRemoteCall), "us");
    M("domain.dropped", static_cast<double>(lc.dropped), "count");
    M("proc.cpu_user_s", proc.user_s, "s");
    M("proc.cpu_sys_s", proc.sys_s, "s");
    M("proc.minor_faults", static_cast<double>(proc.minor_faults), "count");
    M("trace.overhead_pct", 100.0 * (median(overhead) - 1.0), "%");
    M("trace.unattributed_pct",
      lt.timeline_s <= 0 ? 0.0 : 100.0 * (1.0 - src_self / lt.timeline_s), "%");

    if (!opt.trace_out.empty()) {
      if (write_spans(first_spans, opt.trace_out)) {
        std::printf("spans written to %s\n", opt.trace_out.c_str());
      } else {
        tally(r, {"span write-out", false, opt.trace_out});
      }
    }
  }

  std::printf("probe after: alu %.4f ns/step, stream %.2f GB/s\n",
              alu_probe_ns_per_step(), stream_probe_gb_per_s());
  return r;
}

}  // namespace perfbench
