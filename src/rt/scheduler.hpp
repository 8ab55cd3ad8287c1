// Quasi-preemptive green-thread scheduler.
//
// Jikes RVM 2.2.1 — the paper's platform — schedules Java threads
// round-robin over green-thread contexts, switching only at compiler-
// inserted yield points (§3.1 note 4, §4: "The Jikes RVM does not include a
// priority scheduler; threads are scheduled in a round-robin fashion").
// This Scheduler reproduces that model exactly, and is the substrate every
// other module runs on:
//
//  * One OS thread runs the scheduler plus all green threads; context
//    switches happen only inside yield_point() / blocking calls, so any code
//    sequence between yield points is atomic with respect to other threads.
//    The revocation engine leans on this: undo-log replay and monitor
//    release during a rollback are a single indivisible step, which is how
//    the paper guarantees "partial results … are reverted before any of the
//    locks are released" (§3.1.2).
//  * The clock is virtual: one tick per yield point executed.  Timed sleeps
//    (the benchmark's random arrival pauses) are measured in ticks, making
//    every experiment replayable.
//  * Revocation requests are *delivered* here: a flagged thread throws the
//    engine-installed rollback exception from its next yield point, or is
//    yanked from its wait queue (interrupt) if blocked.
//
// A strict-priority ready-queue mode is provided for the baseline ablations
// (priority inheritance / ceiling need a priority scheduler to be
// meaningful); the paper-faithful default is round-robin.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "rt/vthread.hpp"
#include "rt/wait_queue.hpp"
#include "support/annotations.hpp"

namespace rvk::rt {

struct SchedulerConfig {
  // Yield points per time slice.  Jikes RVM time slices are tens of
  // milliseconds of real time; in virtual ticks the absolute value only
  // scales how often round-robin rotation happens.
  int quantum = 100;

  // Usable stack bytes per green thread.
  std::size_t stack_size = 256 * 1024;

  // false: paper-faithful round-robin ready queue (priorities influence only
  // monitor queues and revocation decisions).  true: strict-priority ready
  // queue with round-robin within a level (for baseline ablations).
  bool strict_priority = false;

  // What run() does when no thread can make progress (all live threads
  // blocked and the stall hook could not help): abort with a thread dump, or
  // return with stalled() == true so a test can inspect the wreckage.
  enum class OnStall { kAbort, kReturn };
  OnStall on_stall = OnStall::kAbort;

  // If nonzero, the background hook runs every `background_period`
  // dispatches (the paper's "periodically in the background" detection
  // alternative, §1.1).
  std::uint64_t background_period = 0;

  // Rethrow the first exception that escaped a thread body once run()
  // finishes (surfaces test failures from inside green threads).
  bool rethrow_uncaught = true;

  // First thread id this scheduler hands out.  Lock words embed thread ids,
  // so under sharding (rt/domain.hpp) every shard gets a disjoint id range;
  // the default keeps the classic 1,2,3,... numbering.
  ThreadId first_thread_id = 1;
};

// Materialises the current thread's lazily-deferred synchronized frame via
// the engine-installed hook (DESIGN.md §11).  Declared ahead of Scheduler so
// the inline yield point can call it; out-of-line because it fires at most
// once per synchronized section.  Callers guard on t->lazy_frame.
// MAY_ALLOC declared by hand: the engine hook behind the function pointer
// pushes a pooled core::Frame, which rvkcheck cannot see through the edge.
RVK_MAY_ALLOC void materialize_lazy_frame(VThread* t);

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig cfg = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // ---- Setup ----

  // Creates a thread; it becomes runnable immediately.  Callable before
  // run() and from inside green threads.
  RVK_MAY_ALLOC VThread* spawn(std::string name, int priority,
                               std::function<void()> body);

  // Runs until every thread finished, or until a stall (see OnStall).
  // Callable again after it returns if new threads were spawned.
  void run();

  bool stalled() const { return stalled_; }

  // ---- Identity ----

  // Scheduler driving the current OS thread, or nullptr outside run().
  static Scheduler* current();

  VThread* current_thread() const { return current_; }

  // ---- Virtual time ----

  std::uint64_t now() const { return ticks_; }
  std::uint64_t dispatches() const { return dispatches_; }

  // ---- Green-thread operations (must be called from a green thread) ----

  // The quasi-preemption point: advances the clock, rotates the processor on
  // quantum expiry, and delivers pending revocation requests (may throw the
  // engine's rollback exception).
  RVK_MAY_YIELD RVK_MAY_ALLOC void yield_point() {
    ++ticks_;
    VThread* t = current_;
    RVK_DCHECK(t != nullptr);
    // A lazily-deferred frame must become a real, revocable core::Frame
    // before any switch can let another thread observe this one (§11).
    if (t->lazy_frame) [[unlikely]] materialize_lazy_frame(t);
    if (t->forbidden_region_depth != 0) [[unlikely]] forbidden_switch_point(t);
    if (--t->quantum_left_ <= 0) switch_out(SwitchReason::kYield);
    // Exploration probe: runs in green-thread context (so it may throw an
    // invariant-violation exception through the normal thread-body unwinding
    // path) after any switch, before revocation delivery.
    if (step_hook_) [[unlikely]] step_hook_(current_);
    if (current_->revoke_requested) [[unlikely]] deliver_revocation();
  }

  // Unconditionally gives up the processor (still a revocation point).
  RVK_MAY_YIELD RVK_MAY_ALLOC void yield_now();

  // Sleeps for `ticks` virtual ticks.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void sleep_for(
      std::uint64_t ticks);

  // Blocks until `t` finishes.
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void join(VThread* t);

  // Delivers a pending revocation on the current thread, if any (throws the
  // engine-installed exception).  Monitors call this after every wakeup.
  RVK_MAY_YIELD void check_revocation() {
    if (current_->revoke_requested) [[unlikely]] deliver_revocation();
  }

  // ---- Blocking primitives (for monitor/) ----

  // Parks the current thread on `q`; returns when some other thread wakes it
  // (or interrupt() yanks it out — check current_thread()->interrupted).
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC void block_current_on(
      WaitQueue& q);

  // Like block_current_on, but gives up after `ticks` virtual ticks.
  // Returns true if woken by another thread, false on timeout (the thread
  // was removed from `q`; current_thread()->timed_out is also set).
  RVK_MAY_YIELD RVK_MAY_BLOCK RVK_MAY_ALLOC bool block_current_on_for(
      WaitQueue& q, std::uint64_t ticks);

  // Marks a thread the caller popped off a WaitQueue as runnable again.
  // NO_YIELD: monitor handoff calls this inside its forbidden region.
  RVK_NO_YIELD void make_runnable(VThread* t);

  // Wakes the best-priority thread parked on `q`; returns it (nullptr if the
  // queue was empty).
  RVK_NO_YIELD VThread* wake_best(WaitQueue& q);

  // Wakes every thread parked on `q`.
  RVK_NO_YIELD void wake_all(WaitQueue& q);

  // Wakes `t` if it is parked on `q`; returns false if it was not there.
  RVK_NO_YIELD bool wake_specific(WaitQueue& q, VThread* t);

  // Asynchronous wakeup: if `t` is blocked or sleeping, removes it from its
  // queue / the sleep set, sets t->interrupted, and makes it runnable.  Used
  // to deliver revocation requests to blocked victims.
  // NO_YIELD: monitor cancellation calls this inside its forbidden region.
  RVK_NO_YIELD void interrupt(VThread* t);

  // ---- Engine hooks ----

  // Installed by core::Engine; must throw (it materializes the rollback
  // exception for the current thread).
  void set_revocation_deliverer(std::function<void(VThread*)> f) {
    deliverer_ = std::move(f);
  }

  // Called when no thread is runnable or sleeping; returns true if it made
  // progress possible (e.g. broke a deadlock by revocation).
  void set_stall_hook(std::function<bool()> f) { stall_hook_ = std::move(f); }

  // Periodic background scan (priority-inversion sweep), in scheduler
  // context — it must not block.
  void set_background_hook(std::function<void()> f) {
    background_hook_ = std::move(f);
  }

  // Adjusts how often the background hook fires (0 disables it); lets the
  // engine apply its own configuration after the scheduler was built.
  void set_background_period(std::uint64_t dispatches) {
    cfg_.background_period = dispatches;
  }

  // ---- Domain hook (rt/domain.hpp) ----

  // Installed by rt::Domain: runs once per run()-loop iteration, in
  // scheduler context, before the next dispatch — the shard's mailbox drain
  // point.  Must not assume any particular thread is current.
  void set_domain_poll(std::function<void()> f) {
    domain_poll_ = std::move(f);
  }

  // ---- Exploration hooks (explore/) ----

  // When installed, pick_next() defers the dispatch choice to the hook: it
  // receives every ready thread (sorted by id — a schedule-independent,
  // deterministic enumeration of the decision point) and must return one of
  // them.  Runs in scheduler context; it must not block, yield, or throw.
  // Because context switches happen only at yield points, the sequence of
  // these choices fully determines the interleaving — this is the substrate
  // the schedule-exploration harness drives (DESIGN.md §9).
  using PickHook = std::function<VThread*(const std::vector<VThread*>&)>;
  void set_pick_hook(PickHook f) { pick_hook_ = std::move(f); }

  // Called from every yield point in green-thread context, after any
  // quantum switch and before revocation delivery.  Unlike the pick hook it
  // may throw — the exploration harness uses that to fail a schedule from
  // the checked thread, unwinding through the engine's normal commit/abort
  // handling instead of tearing through the scheduler loop.
  void set_step_hook(std::function<void(VThread*)> f) {
    step_hook_ = std::move(f);
  }

  // ---- Introspection ----

  const SchedulerConfig& config() const { return cfg_; }
  std::vector<VThread*> threads() const;

  // Thread lookup by id (thin-lock inflation resolves header-word owner
  // ids); nullptr if unknown.
  VThread* thread_by_id(ThreadId id) const;
  std::size_t live_count() const { return live_count_; }

  // Fiber stacks released by finished threads (each thread's stack is
  // reclaimed the moment it finishes, so resident memory tracks the LIVE
  // population even when a run spawns short-lived threads by the hundred
  // thousand — the open-loop driver's regime).
  std::uint64_t stacks_reclaimed() const { return stacks_reclaimed_; }

  // Fresh stacks spawn() mapped because the free list of reclaimed ones was
  // empty.  Bounded by the live-thread high-water while that stays within
  // kMaxFreeStacks, however many threads a run spawns.
  std::uint64_t stacks_mapped() const { return stacks_mapped_; }

  // True if the deadline heap still holds a live (non-stale-generation)
  // timer for `t` of the given flavour.  O(timers) scan — invariant-checking
  // introspection only, never on a runtime path.
  bool timer_armed(const VThread* t, bool timed_block) const;

  // Writes a one-line-per-thread dump to stderr (stall diagnostics).
  void dump_threads() const;

 private:
  friend class VThread;

  // Out-of-line slow path of the forbidden-region check: forwards to the
  // analyzer's switch probe (no-op if none is installed).
  static void forbidden_switch_point(VThread* t);

  // A reclaimed stack from the free list, or a freshly mapped one.
  std::unique_ptr<Stack> take_stack();
  VThread* pick_next();
  // MAY_ALLOC: the obs recorder lazily registers a thread's ring at
  // dispatch (legal: scheduler context is never a forbidden region).
  RVK_MAY_YIELD RVK_MAY_ALLOC void dispatch(VThread* t);
  RVK_MAY_YIELD RVK_MAY_ALLOC void switch_out(SwitchReason reason);
  [[noreturn]] RVK_MAY_YIELD RVK_MAY_ALLOC void finish_current();
  void arm_timer(VThread* t, std::uint64_t deadline, bool timed_block);
  void fire_due_timers();
  std::uint64_t next_timer_deadline();
  // MAY_YIELD declared by hand: deliverer_ (a std::function rvkcheck cannot
  // resolve) throws the engine's RollbackException, which unwinds into
  // scheduler-visible state.
  RVK_MAY_YIELD void deliver_revocation();

  // Deadline min-heap entry: a sleeping thread's wakeup or a timed block's
  // timeout.  Entries are validated lazily against the thread's timer_gen_
  // (any wakeup bumps it), so cancellation is O(1) and the virtual-clock
  // tick pays O(log timers) only when a deadline actually fires — never the
  // old O(threads) sweep.
  struct Timer {
    std::uint64_t deadline;
    std::uint64_t seq;  // registration order: FIFO among equal deadlines
    std::uint64_t gen;  // matches thread->timer_gen_ while still armed
    VThread* thread;
    bool timed_block;  // true: timeout of a block_current_on_for park
  };
  struct TimerAfter {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.deadline != b.deadline ? a.deadline > b.deadline
                                      : a.seq > b.seq;
    }
  };

  // Cap on reclaimed stacks kept for reuse; a finished thread's stack
  // beyond it is unmapped.
  static constexpr std::size_t kMaxFreeStacks = 256;

  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<VThread>> threads_;
  // Finished threads' stacks awaiting reuse (all cfg_.stack_size bytes).
  std::vector<std::unique_ptr<Stack>> free_stacks_;
  // Ready queue: priority-bucketed in strict mode, single FIFO bucket in the
  // paper-faithful round-robin mode; O(1) either way.
  WaitQueue ready_;
  std::vector<Timer> timers_;  // min-heap ordered by TimerAfter
  std::uint64_t timer_seq_ = 0;
  VThread* current_ = nullptr;
  ucontext_t sched_context_{};
  SwitchReason last_reason_ = SwitchReason::kYield;
  // ASan fiber bookkeeping (populated only under AddressSanitizer).
  void* asan_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  // TSan fiber bookkeeping (populated only under ThreadSanitizer): the OS
  // thread's own fiber, switched back to around every dispatch.
  void* tsan_sched_fiber_ = nullptr;
  std::uint64_t ticks_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t stacks_reclaimed_ = 0;
  std::uint64_t stacks_mapped_ = 0;
  std::size_t live_count_ = 0;
  bool running_ = false;
  bool stalled_ = false;
  ThreadId next_id_ = 1;

  std::function<void(VThread*)> deliverer_;
  std::function<bool()> stall_hook_;
  std::function<void()> background_hook_;
  std::function<void()> domain_poll_;
  PickHook pick_hook_;
  std::function<void(VThread*)> step_hook_;
  std::vector<VThread*> pick_candidates_;  // scratch, reused across dispatches
};

// Fast accessors for barrier code: the thread currently executing on this OS
// thread's scheduler, or nullptr when no scheduler is running (plain host
// code, unit tests without a scheduler).
namespace detail {
extern thread_local Scheduler* g_current_scheduler;
// The thread currently executing on this OS thread *if* it is inside a
// synchronized section, else nullptr.  This is the write barrier's entire
// fast-path state (one TLS load + one branch; DESIGN.md §11): maintained by
// rt::enter_section/exit_section at sync-depth 0↔1 transitions and by
// dispatch()/run() around every fiber switch.
extern thread_local VThread* g_section_vthread;
// Revocation-safety analyzer plumbing (analysis/).  When marking is off the
// guards below do nothing and forbidden_region_depth stays zero, so the
// yield-point check never takes its branch — the zero-overhead-when-off
// contract of RVK_ANALYZE.
extern bool g_region_marking;
extern void (*g_switch_probe)(VThread* t, const char* where);
// Engine-installed lazy-frame materialiser (nullptr when no engine is
// active); called through rt::materialize_lazy_frame.
extern void (*g_lazy_frame_hook)(VThread* t);
}  // namespace detail

// In-section cache accessors (write-barrier fast path).  Out-of-line for the
// same TLS/sanitizer reason as current_scheduler() below.
VThread* section_vthread();
// Called by the engine when the current thread's sync_depth leaves/returns
// to zero (and by heap tests that simulate section entry by hand).
void enter_section(VThread* t);
void exit_section();

// Installs the engine's lazy-frame materialiser (nullptr to uninstall).
void set_lazy_frame_hook(void (*hook)(VThread*));

// Enables/disables forbidden-region marking (analyzer install/uninstall).
void set_region_marking(bool on);
bool region_marking();

// Installs the analyzer's switch probe: called when a yield point or a
// blocking call is reached inside a forbidden region (nullptr to uninstall).
// The probe must not block or yield.
void set_switch_probe(void (*probe)(VThread*, const char*));

// RAII marker for code that must not contain a yield point or blocking call:
// the engine's commit/abort sequences and monitor release paths, whose
// atomicity the rollback protocol relies on (§3.1.2; CLAUDE.md invariant).
// Active only while the analyzer has region marking enabled.
class ForbiddenRegionGuard {
 public:
  explicit ForbiddenRegionGuard(VThread* t)
      : t_(detail::g_region_marking ? t : nullptr) {
    if (t_ != nullptr) ++t_->forbidden_region_depth;
  }
  ~ForbiddenRegionGuard() {
    if (t_ != nullptr) --t_->forbidden_region_depth;
  }
  ForbiddenRegionGuard(const ForbiddenRegionGuard&) = delete;
  ForbiddenRegionGuard& operator=(const ForbiddenRegionGuard&) = delete;

 private:
  VThread* t_;
};

// Out-of-line on purpose: GCC may cache the computed TLS address across a
// ucontext fiber switch when these are inlined into long-running frames,
// which UBSan then flags (and which would break under any future M:N
// mapping of schedulers to OS threads).
Scheduler* current_scheduler();
VThread* current_vthread();

// Convenience wrappers used throughout workloads.
RVK_MAY_YIELD RVK_MAY_ALLOC inline void yield_point() {
  Scheduler* s = detail::g_current_scheduler;
  if (s != nullptr) s->yield_point();
}

}  // namespace rvk::rt
