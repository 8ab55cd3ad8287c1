#include "rt/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/recorder.hpp"

// AddressSanitizer needs to be told about stack switches or its unwinding
// machinery (e.g. __asan_handle_no_return during exception propagation on a
// fiber stack) reports wild stack-buffer overflows — the classic
// google/sanitizers#189.  The annotations are no-ops elsewhere.
#if defined(__SANITIZE_ADDRESS__)
#define RVK_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RVK_ASAN_FIBERS 1
#endif
#endif
#ifdef RVK_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise needs fiber switches announced, or it attributes
// one OS thread's interleaved fiber stacks to a single logical thread and
// reports wild races the moment shards run on real threads (rt/domain.hpp,
// kOsThreads).  Same pairing discipline as the ASan annotations: every
// switch into a fiber names that fiber, every switch back names the
// scheduler's.  No-ops elsewhere.
#if defined(__SANITIZE_THREAD__)
#define RVK_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RVK_TSAN_FIBERS 1
#endif
#endif
#ifdef RVK_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace rvk::rt {

namespace detail {
thread_local Scheduler* g_current_scheduler = nullptr;
thread_local VThread* g_section_vthread = nullptr;
bool g_region_marking = false;
void (*g_switch_probe)(VThread*, const char*) = nullptr;
void (*g_lazy_frame_hook)(VThread*) = nullptr;
}  // namespace detail

void set_region_marking(bool on) { detail::g_region_marking = on; }
bool region_marking() { return detail::g_region_marking; }

void set_switch_probe(void (*probe)(VThread*, const char*)) {
  detail::g_switch_probe = probe;
}

VThread* section_vthread() { return detail::g_section_vthread; }

void enter_section(VThread* t) { detail::g_section_vthread = t; }

void exit_section() { detail::g_section_vthread = nullptr; }

void set_lazy_frame_hook(void (*hook)(VThread*)) {
  detail::g_lazy_frame_hook = hook;
}

void materialize_lazy_frame(VThread* t) {
  RVK_DCHECK(t->lazy_frame);
  if (detail::g_lazy_frame_hook != nullptr) detail::g_lazy_frame_hook(t);
  RVK_DCHECK(!t->lazy_frame);
}

void Scheduler::forbidden_switch_point(VThread* t) {
  if (detail::g_switch_probe != nullptr) {
    detail::g_switch_probe(t, "yield point");
  }
}

Scheduler* current_scheduler() { return detail::g_current_scheduler; }

VThread* current_vthread() {
  Scheduler* s = detail::g_current_scheduler;
  return s != nullptr ? s->current_thread() : nullptr;
}

// ---------------------------------------------------------------------------
// VThread

VThread::VThread(Scheduler* sched, ThreadId id, std::string name, int priority,
                 std::function<void()> body, std::size_t stack_size)
    : sched_(sched),
      id_(id),
      name_(std::move(name)),
      priority_(priority),
      body_(std::move(body)),
      stack_(std::make_unique<Stack>(stack_size)) {
  RVK_CHECK_MSG(priority >= kMinPriority && priority <= kMaxPriority,
                "thread priority out of Java range [1,10]");
}

void VThread::entry() {
#ifdef RVK_ASAN_FIBERS
  // First arrival on this fiber's stack: complete the switch the scheduler
  // started, learning the scheduler's (OS thread) stack bounds on the way.
  __sanitizer_finish_switch_fiber(nullptr, &sched_->sched_stack_bottom_,
                                  &sched_->sched_stack_size_);
#endif
  try {
    body_();
  } catch (...) {
    uncaught_ = std::current_exception();
  }
  sched_->finish_current();
}

namespace {
// makecontext passes only ints; split the VThread pointer across two.
void thread_trampoline(unsigned int hi, unsigned int lo) {
  auto ptr = (static_cast<std::uintptr_t>(hi) << 32) |
             static_cast<std::uintptr_t>(lo);
  reinterpret_cast<VThread*>(ptr)->entry();
  RVK_UNREACHABLE("green thread returned past entry()");
}
}  // namespace

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(SchedulerConfig cfg)
    : cfg_(cfg),
      ready_(cfg.strict_priority ? WaitQueue::Order::kPriority
                                 : WaitQueue::Order::kFifo) {
  RVK_CHECK(cfg_.quantum > 0);
  // Id 0 is the thin-lock "unowned" encoding; never hand it out.
  RVK_CHECK_MSG(cfg_.first_thread_id >= 1, "thread ids start at 1");
  next_id_ = cfg_.first_thread_id;
}

Scheduler::~Scheduler() {
  RVK_CHECK_MSG(!running_, "Scheduler destroyed while running");
#ifdef RVK_TSAN_FIBERS
  // Fibers of threads that never finished (stalled-test wreckage).
  for (const auto& t : threads_) {
    if (t->tsan_fiber_ != nullptr) __tsan_destroy_fiber(t->tsan_fiber_);
  }
#endif
}

VThread* Scheduler::spawn(std::string name, int priority,
                          std::function<void()> body) {
  auto thread = std::make_unique<VThread>(this, next_id_++, std::move(name),
                                          priority, std::move(body),
                                          cfg_.stack_size);
  VThread* t = thread.get();
  RVK_CHECK_MSG(getcontext(&t->context_) == 0, "getcontext failed");
  t->context_.uc_stack.ss_sp = t->stack_->base();
  t->context_.uc_stack.ss_size = t->stack_->size();
  t->context_.uc_link = &sched_context_;
  const auto ptr = reinterpret_cast<std::uintptr_t>(t);
  makecontext(&t->context_, reinterpret_cast<void (*)()>(thread_trampoline), 2,
              static_cast<unsigned int>(ptr >> 32),
              static_cast<unsigned int>(ptr & 0xFFFFFFFFu));
  t->state_ = ThreadState::kRunnable;
#ifdef RVK_TSAN_FIBERS
  t->tsan_fiber_ = __tsan_create_fiber(0);
  __tsan_set_fiber_name(t->tsan_fiber_, t->name().c_str());
#endif
  threads_.push_back(std::move(thread));
  ready_.push(t);
  ++live_count_;
  obs::on_spawn(t);
  return t;
}

Scheduler* Scheduler::current() { return detail::g_current_scheduler; }

VThread* Scheduler::pick_next() {
  // O(1) both ways: round-robin pops the single FIFO bucket; strict priority
  // is one find-first-set over the occupancy bitmap plus a list pop, FIFO
  // within the best level (first-arrived among the highest-priority ones).
  if (!pick_hook_) [[likely]] return ready_.pop_best();

  // Exploration mode: enumerate the decision point for the hook.  The
  // candidate list is sorted by thread id so index i means the same thread
  // in every schedule that reaches an identical decision point — the
  // property record/replay traces depend on.
  if (ready_.empty()) return nullptr;
  pick_candidates_.clear();
  ready_.for_each([this](VThread* t) { pick_candidates_.push_back(t); });
  std::sort(pick_candidates_.begin(), pick_candidates_.end(),
            [](const VThread* a, const VThread* b) { return a->id() < b->id(); });
  VThread* chosen = pick_hook_(pick_candidates_);
  RVK_CHECK_MSG(chosen != nullptr, "pick hook returned no thread");
  bool removed = ready_.remove(chosen);
  RVK_CHECK_MSG(removed, "pick hook chose a thread that is not ready");
  return chosen;
}

void Scheduler::dispatch(VThread* t) {
  RVK_CHECK(t->state_ == ThreadState::kRunnable);
  t->state_ = ThreadState::kRunning;
  t->quantum_left_ = cfg_.quantum;
  ++t->stats_.dispatches;
  ++dispatches_;
  current_ = t;
  obs::on_dispatch(t);
  // Arm the write barrier's in-section cache for the incoming thread (it may
  // have been switched out mid-section).
  detail::g_section_vthread = t->sync_depth > 0 ? t : nullptr;
#ifdef RVK_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&asan_fake_stack_, t->stack_->base(),
                                 t->stack_->size());
#endif
#ifdef RVK_TSAN_FIBERS
  __tsan_switch_to_fiber(t->tsan_fiber_, 0);
#endif
  RVK_CHECK_MSG(swapcontext(&sched_context_, &t->context_) == 0,
                "swapcontext into thread failed");
#ifdef RVK_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_fake_stack_, nullptr, nullptr);
#endif
  detail::g_section_vthread = nullptr;  // scheduler context logs nothing
  current_ = nullptr;
  obs::on_switch_out(t, last_reason_);

  switch (last_reason_) {
    case SwitchReason::kYield:
      t->state_ = ThreadState::kRunnable;
      ready_.push(t);
      break;
    case SwitchReason::kBlock:
    case SwitchReason::kSleep:
      // State and queue membership were set before switching out.
      break;
    case SwitchReason::kFinish:
      t->state_ = ThreadState::kFinished;
      --live_count_;
      wake_all(t->joiners_);
      // Reclaim the dead fiber's execution resources.  The swapcontext
      // above completed the switch off that stack (and switch_out already
      // tore down its ASan fake stack), so nothing can touch it again: a
      // finished thread is never dispatched and join() only reads control-
      // block fields.  This keeps *stack* memory O(live threads) when
      // open-loop drivers (svc/) spawn one short-lived green thread per
      // request.  The control block, undo log and dedup table are not
      // reclaimed: they live in threads_ until the scheduler dies.
      t->stack_.reset();
      t->body_ = nullptr;
#ifdef RVK_TSAN_FIBERS
      // Back on the scheduler fiber (switch_out announced that), so the
      // dead fiber is no longer current and may be destroyed.
      __tsan_destroy_fiber(t->tsan_fiber_);
      t->tsan_fiber_ = nullptr;
#endif
      ++stacks_reclaimed_;
      break;
  }
}

void Scheduler::switch_out(SwitchReason reason) {
  VThread* t = current_;
  RVK_DCHECK(t != nullptr);
  last_reason_ = reason;
#ifdef RVK_ASAN_FIBERS
  // A finishing fiber's fake stack is torn down (nullptr save slot).
  __sanitizer_start_switch_fiber(
      reason == SwitchReason::kFinish ? nullptr : &t->asan_fake_stack_,
      sched_stack_bottom_, sched_stack_size_);
#endif
#ifdef RVK_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_sched_fiber_, 0);
#endif
  RVK_CHECK_MSG(swapcontext(&t->context_, &sched_context_) == 0,
                "swapcontext to scheduler failed");
#ifdef RVK_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(t->asan_fake_stack_, nullptr, nullptr);
#endif
  // Resumed: we are Running again (dispatch set the state).
}

void Scheduler::finish_current() {
  switch_out(SwitchReason::kFinish);
  RVK_UNREACHABLE("finished thread resumed");
}

void Scheduler::yield_now() {
  current_->quantum_left_ = 0;
  yield_point();
}

void Scheduler::sleep_for(std::uint64_t ticks) {
  VThread* t = current_;
  if (t->lazy_frame) [[unlikely]] materialize_lazy_frame(t);
  if (t->forbidden_region_depth != 0) [[unlikely]] {
    if (detail::g_switch_probe != nullptr) {
      detail::g_switch_probe(t, "sleep_for");
    }
  }
  if (ticks == 0) {
    yield_now();
    return;
  }
  t->sleep_deadline_ = ticks_ + ticks;
  t->state_ = ThreadState::kSleeping;
  arm_timer(t, t->sleep_deadline_, /*timed_block=*/false);
  switch_out(SwitchReason::kSleep);
  check_revocation();
}

void Scheduler::join(VThread* target) {
  RVK_CHECK_MSG(target != current_, "thread cannot join itself");
  while (!target->finished()) {
    block_current_on(target->joiners_);
  }
}

void Scheduler::block_current_on(WaitQueue& q) {
  VThread* t = current_;
  if (t->lazy_frame) [[unlikely]] materialize_lazy_frame(t);
  if (t->forbidden_region_depth != 0) [[unlikely]] {
    if (detail::g_switch_probe != nullptr) {
      detail::g_switch_probe(t, "blocking call");
    }
  }
  t->interrupted = false;
  t->timed_out = false;
  t->state_ = ThreadState::kBlocked;
  t->blocked_on_ = &q;
  q.push(t);
  ++t->stats_.blocks;
  switch_out(SwitchReason::kBlock);
  // Woken: the waker (or interrupt) already removed us from the queue.
  RVK_DCHECK(t->blocked_on_ == nullptr);
}

bool Scheduler::block_current_on_for(WaitQueue& q, std::uint64_t ticks) {
  VThread* t = current_;
  t->sleep_deadline_ = ticks_ + ticks;
  arm_timer(t, t->sleep_deadline_, /*timed_block=*/true);
  block_current_on(q);
  // A real wakeup (or interrupt) already disarmed the timer: make_runnable
  // bumped timer_gen_, so the heap entry is stale and gets dropped lazily.
  return !t->timed_out;
}

void Scheduler::make_runnable(VThread* t) {
  t->blocked_on_ = nullptr;
  ++t->timer_gen_;  // disarm any pending sleep/timeout deadline
  t->state_ = ThreadState::kRunnable;
  ready_.push(t);
}

VThread* Scheduler::wake_best(WaitQueue& q) {
  VThread* t = q.pop_best();
  if (t != nullptr) make_runnable(t);
  return t;
}

void Scheduler::wake_all(WaitQueue& q) {
  while (VThread* t = q.pop_best()) make_runnable(t);
}

bool Scheduler::wake_specific(WaitQueue& q, VThread* t) {
  if (!q.remove(t)) return false;
  make_runnable(t);
  return true;
}

void Scheduler::interrupt(VThread* t) {
  switch (t->state_) {
    case ThreadState::kBlocked: {
      RVK_CHECK(t->blocked_on_ != nullptr);
      bool removed = t->blocked_on_->remove(t);
      RVK_CHECK_MSG(removed, "blocked thread missing from its wait queue");
      t->interrupted = true;
      make_runnable(t);
      break;
    }
    case ThreadState::kSleeping: {
      t->interrupted = true;
      make_runnable(t);  // bumps timer_gen_, disarming the sleep deadline
      break;
    }
    default:
      // Runnable/Running threads observe flags at their next yield point;
      // nothing to do here.
      break;
  }
}

void Scheduler::deliver_revocation() {
  VThread* t = current_;
  RVK_CHECK_MSG(static_cast<bool>(deliverer_),
                "revocation requested but no deliverer installed");
  // Normally throws the engine's rollback exception; returns without
  // throwing when the request became invalid (e.g. the target frame was
  // pinned non-revocable after the request was posted).
  deliverer_(t);
  RVK_CHECK_MSG(!t->revoke_requested,
                "deliverer returned with the request still pending");
}

void Scheduler::arm_timer(VThread* t, std::uint64_t deadline,
                          bool timed_block) {
  timers_.push_back(
      Timer{deadline, timer_seq_++, ++t->timer_gen_, t, timed_block});
  std::push_heap(timers_.begin(), timers_.end(), TimerAfter{});
}

void Scheduler::fire_due_timers() {
  while (!timers_.empty() && timers_.front().deadline <= ticks_) {
    const Timer tm = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerAfter{});
    timers_.pop_back();
    VThread* t = tm.thread;
    if (tm.gen != t->timer_gen_) continue;  // disarmed by an earlier wakeup
    if (tm.timed_block) {
      // Expire a timed block: pull the thread out of its wait queue with
      // timed_out set; block_current_on_for translates that into `false`.
      // A live generation implies the thread is still parked (every wakeup
      // path goes through make_runnable, which bumps the generation).
      RVK_DCHECK(t->state_ == ThreadState::kBlocked);
      RVK_CHECK(t->blocked_on_ != nullptr);
      bool removed = t->blocked_on_->remove(t);
      RVK_CHECK_MSG(removed, "timed-blocked thread missing from its queue");
      t->timed_out = true;
    } else {
      RVK_DCHECK(t->state_ == ThreadState::kSleeping);
    }
    make_runnable(t);
  }
}

std::uint64_t Scheduler::next_timer_deadline() {
  // Discard stale (disarmed) entries on the way to the live minimum; each
  // registration is popped at most once, so this stays amortized O(log n).
  while (!timers_.empty() &&
         timers_.front().gen != timers_.front().thread->timer_gen_) {
    std::pop_heap(timers_.begin(), timers_.end(), TimerAfter{});
    timers_.pop_back();
  }
  return timers_.empty() ? std::numeric_limits<std::uint64_t>::max()
                         : timers_.front().deadline;
}

void Scheduler::run() {
  RVK_CHECK_MSG(detail::g_current_scheduler == nullptr,
                "nested Scheduler::run on one OS thread");
  detail::g_current_scheduler = this;
  detail::g_section_vthread = nullptr;
  running_ = true;
  stalled_ = false;
#ifdef RVK_TSAN_FIBERS
  tsan_sched_fiber_ = __tsan_get_current_fiber();
#endif

  while (live_count_ > 0) {
    // Shard mailbox drain (rt/domain.hpp); empty in the unsharded runtime.
    // Scheduler context: it may wake blocked threads and spawn helpers, and
    // it never advances the virtual clock.
    if (domain_poll_) [[unlikely]] domain_poll_();
    fire_due_timers();
    VThread* next = pick_next();
    if (next == nullptr) {
      const std::uint64_t deadline = next_timer_deadline();
      if (deadline != std::numeric_limits<std::uint64_t>::max()) {
        // Idle: fast-forward the virtual clock to the next wakeup (a sleep
        // or a timed block expiring).
        ticks_ = std::max(ticks_, deadline);
        continue;
      }
      // Every live thread is blocked.  Give the engine's stall hook (the
      // deadlock breaker) a chance before declaring a stall.
      if (stall_hook_ && stall_hook_()) continue;
      stalled_ = true;
      if (cfg_.on_stall == SchedulerConfig::OnStall::kAbort) {
        std::fprintf(stderr, "Scheduler stalled: all threads blocked\n");
        dump_threads();
        std::abort();
      }
      break;
    }
    dispatch(next);
    if (background_hook_ && cfg_.background_period != 0 &&
        dispatches_ % cfg_.background_period == 0) {
      background_hook_();
    }
  }

  running_ = false;
  detail::g_current_scheduler = nullptr;
  detail::g_section_vthread = nullptr;

  if (cfg_.rethrow_uncaught) {
    // Only the first captured exception can propagate; others (rare — they
    // require several threads to die in one run) stay attached to their
    // threads and surface on a subsequent run() call.
    for (const auto& t : threads_) {
      if (t->uncaught_) {
        std::exception_ptr e = t->uncaught_;
        t->uncaught_ = nullptr;
        std::rethrow_exception(e);
      }
    }
  }
}

bool Scheduler::timer_armed(const VThread* t, bool timed_block) const {
  for (const Timer& tm : timers_) {
    if (tm.thread == t && tm.timed_block == timed_block &&
        tm.gen == t->timer_gen_) {
      return true;
    }
  }
  return false;
}

VThread* Scheduler::thread_by_id(ThreadId id) const {
  for (const auto& t : threads_) {
    if (t->id() == id) return t.get();
  }
  return nullptr;
}

std::vector<VThread*> Scheduler::threads() const {
  std::vector<VThread*> out;
  out.reserve(threads_.size());
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

void Scheduler::dump_threads() const {
  static const char* const kStateNames[] = {"new",      "runnable", "running",
                                            "blocked",  "sleeping", "finished"};
  for (const auto& t : threads_) {
    std::fprintf(stderr,
                 "  thread %u '%s' prio=%d state=%s sync_depth=%d "
                 "revoke_requested=%d\n",
                 t->id(), t->name().c_str(), t->priority(),
                 kStateNames[static_cast<int>(t->state())], t->sync_depth,
                 t->revoke_requested ? 1 : 0);
  }
}

}  // namespace rvk::rt
