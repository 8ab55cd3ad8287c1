// Spans for the traced run (README.md, "Traced run").
//
// A span records one call the benchmark makes into a layer: a name, wall
// start and end, the span that caused it, and the request it serves.  Spans
// stay in per-OS-thread buffers until the run ends, when they are analysed
// and written out.  Nothing here touches the library: every span is opened
// and closed by the benchmark's own loops.
//
// Green threads share one OS thread, so a span's wall interval on a vthread
// also covers time other vthreads ran while it was switched out.  The
// tracer therefore watches which vthread is running at every observation
// point (span open/close, and `step()` after each yield point) and, when
// the running vthread changes, records
//   * an `rt.switch` span from the last observation of the old vthread to
//     the first observation of the new one (dispatch, context switch and at
//     most one step of work on each side), and
//   * an `offcpu` child of the resumed vthread's innermost open span,
//     covering the time it was switched out.
// A layer's self time is then span duration minus what its children cover,
// and on each OS thread the self times of all spans partition the traced
// timeline.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Ns = std::int64_t;
Ns now_ns();

enum class SpanName : std::uint8_t {
  kWindow,       // bench: one window of a workload (root)
  kShard,        // rt: one shard's OS-thread lifetime in a window (root)
  kGenerate,     // svc::generate
  kRun,          // rt::Scheduler::run
  kSwitch,       // rt: between two vthreads (see above)
  kOffcpu,       // not a layer: the vthread was switched out
  kSpawn,        // rt::Scheduler::spawn
  kSleep,        // rt::Scheduler::sleep_for
  kInject,       // svc: the open-loop injector vthread
  kRequest,      // svc: one request vthread
  kExecute,      // svc::BankService::execute
  kThread,       // harness: one §4.1 thread
  kSynchronized, // core::Engine::synchronized
  kBody,         // harness: section body (the workload's own compute)
  kHeapSet,      // heap: HeapArray::set / HeapObject::set (sampled)
  kHeapGet,      // heap: HeapArray::get / HeapObject::get (sampled)
  kRemoteCall,   // domain: DomainSet::remote_call
  kWorker,       // bench: one shard_ship worker vthread
  kHelper,       // bench: a shipped section's body on the target shard
  kMainWait,     // not a layer: main thread blocked in DomainSet::join
  kCount,
};

const char* span_name(SpanName n);
// "rt", "svc", "core", "heap", "domain", "harness", "bench", or "" for
// kOffcpu / kMainWait, which no layer owns.
const char* span_layer(SpanName n);

inline constexpr std::uint64_t kNoSpan = ~0ull;

struct Span {
  std::uint64_t id = kNoSpan;
  std::uint64_t parent = kNoSpan;
  std::uint64_t req = 0;  // request / thread id; 0 = none
  Ns start = 0;
  Ns end = -1;             // -1 while open
  std::uint32_t weight = 1;  // a sampled span stands for `weight` calls
  SpanName name = SpanName::kWindow;
};

// Self time of each span: its duration minus the union of its children's
// intervals clipped to it.  A sampled child (weight w > 1) also takes
// (w - 1) x its duration out of its parent's self time, for the calls it
// stands for that were not timed; when the parent's self time cannot cover
// that, every sampled child of it is scaled down alike, so self times
// never sum past the traced wall.  Returned in the order of `spans` as
// (self ns, effective weight); ids must be unique.
struct SelfTime {
  Ns self = 0;
  double weight = 1;  // multiply `self` by this for the span's layer total
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling OS thread, child of the running vthread's
  // innermost open span (a vthread's first span is a child of the
  // timeline root; see begin_timeline).
  std::uint64_t open(SpanName name, std::uint64_t req = 0);
  void close(std::uint64_t id);
  // Records a closed span with explicit bounds (sampled calls).
  void record(SpanName name, Ns start, Ns end, std::uint32_t weight);
  // Observation point after a call that may have switched vthreads.
  void step();

  // Starts a new timeline on the calling OS thread: forgets vthread state
  // (a new scheduler reuses nothing of the old one) and parents vthread
  // roots and switch spans under `root`.
  void begin_timeline(std::uint64_t root);

  // Every span recorded so far, from all OS threads; the buffers are
  // emptied.  Call only while no span is open.
  std::vector<Span> take();

 private:
  struct ThreadBuf;
  ThreadBuf& buf();
  void observe(ThreadBuf& b, const void* vt, Ns now);

  const std::uint64_t serial_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

// RAII span; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* t, SpanName n, std::uint64_t req = 0)
      : t_(t), id_(t != nullptr ? t->open(n, req) : kNoSpan) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* t_;
  std::uint64_t id_;
};

// Per-layer totals of a span set.
struct LayerTimes {
  std::vector<std::string> layers;
  std::vector<double> self_s;
  double timeline_s = 0;  // root durations minus main-thread waits
  double self_of(const std::string& layer) const;
  void add(const LayerTimes& o);
};
LayerTimes layer_times(const std::vector<Span>& spans);

// Durations (ns) of every closed span called `n`.
std::vector<double> durations(const std::vector<Span>& spans, SpanName n);

// Writes spans as CSV (id,parent,req,name,start_ns,end_ns,weight).
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
