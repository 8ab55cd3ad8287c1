#include "core/engine.hpp"

#include <algorithm>
#include <cstdlib>

#include "analysis/hooks.hpp"
#include "heap/heap.hpp"
#include "jmm/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace rvk::core {

namespace {
// The classic (unsharded) engine slot: one engine per OS thread.  Under
// sharding the entered domain's engine_ctx takes precedence — see
// Engine::active().  Thread-local rather than a plain global so kOsThreads
// shards never alias each other's slot even if one runs unsharded code.
thread_local Engine* t_active_engine = nullptr;

// The process-global barrier hooks (heap barriers, rt lazy-frame hook) are
// a shared install: every co-active engine routes through the same static
// trampolines, which resolve the acting engine per shard via
// Engine::active().  First engine in installs and snapshots the config
// facet that programs global *flags*; later engines are checked against the
// snapshot (divergent barrier config across shards cannot work — the flags
// are process-wide); last engine out uninstalls.  The mutex orders
// concurrent setup/teardown of kOsThreads shards and provides the
// happens-before for the plain hook globals it guards.
struct GlobalHooks {
  std::mutex mu;
  int count = 0;
  bool jmm_guard = false;
  bool dedup_logging = false;
  bool conservative_volatile = false;
};
GlobalHooks g_hooks;
}  // namespace

Engine* Engine::active() {
  if (rt::Domain* d = rt::current_domain()) {
    if (void* e = d->engine_ctx()) return static_cast<Engine*>(e);
  }
  return t_active_engine;
}

// ---------------------------------------------------------------------------
// Construction / teardown

Engine::Engine(rt::Scheduler& sched, EngineConfig cfg)
    : sched_(sched), cfg_(cfg) {
  // Bind to the shard current on this thread (DomainSet setup runs with its
  // domain entered), or fall back to the classic one-per-thread slot.
  if (rt::Domain* d = rt::current_domain()) {
    RVK_CHECK_MSG(&sched_ == &d->sched(),
                  "a shard's engine must drive that shard's scheduler");
    RVK_CHECK_MSG(d->engine_ctx() == nullptr,
                  "this shard already has an engine");
    domain_ = d;
    // Multi-shard: the shared MonitorTable pool needs its mutex from here
    // on — before this constructor's first table access (the veto below),
    // because peer shards build their engines concurrently on their own OS
    // threads.  Idempotent across shards.
    if (d->set() != nullptr && d->set()->size() > 1) {
      monitor::MonitorTable::global().set_concurrent(true);
    }
  } else {
    RVK_CHECK_MSG(t_active_engine == nullptr,
                  "another Engine is already active");
  }

  // RVK_BIAS=0 is the escape hatch reproducing pre-bias behaviour (figures
  // cross-check; DESIGN.md §11).  Resolved here, before any monitor latches
  // the flag.  Trace mode records per-acquire events the lazy fast path
  // would skip, so it keeps the engine path (monitor bias stays on).
  const char* bias_env = std::getenv("RVK_BIAS");
  if (bias_env != nullptr && bias_env[0] == '0') cfg_.bias = false;
  bias_enabled_ = cfg_.bias && !cfg_.trace;

  // Object monitors live behind compact lock words in the process-wide
  // MonitorTable (DESIGN.md §13).  The factory builds this engine's
  // RevocableMonitors; the veto narrows the table's structural quiescence
  // predicate with engine knowledge: a monitor referenced by any live frame
  // — or by a biased section still in its LAZY window (DESIGN.md §11) — is
  // not deflatable even if its owner/queues look idle at the instant asked.
  // This is what keeps revocation semantics bit-identical under deflation:
  // a frame's monitor pointer can never be invalidated under it.  The veto
  // is keyed by this engine (the tag its slots carry), so it only ever runs
  // against slots of this shard — a peer shard's scavenge never walks this
  // engine's frames (§16).
  monitor_factory_ = [this](std::string name) {
    return std::unique_ptr<monitor::MonitorBase>(
        std::make_unique<RevocableMonitor>(std::move(name), *this));
  };
  monitor::MonitorTable::global().set_deflate_veto(
      this, [this](const monitor::MonitorBase& m) {
        // §16: a cross-shard message may reference any monitor of this
        // shard (a shipped section body is opaque until it runs), so while
        // any message is in flight or executing here, nothing deflates.
        if (domain_ != nullptr && domain_->inbound_work() > 0) return false;
        for (const auto& [t, ts] : sync_states_) {
          for (const Frame& f : ts->frames) {
            if (static_cast<const monitor::MonitorBase*>(f.monitor) == &m) {
              return false;
            }
          }
          if (t->lazy_frame &&
              static_cast<const monitor::MonitorBase*>(ts->lazy_monitor) ==
                  &m) {
            return false;
          }
        }
        return true;
      });

  sched_.set_revocation_deliverer([this](rt::VThread* t) { deliver(t); });
  sched_.set_stall_hook([this]() { return on_stall(); });
  if (cfg_.detection == DetectionMode::kBackground ||
      cfg_.detection == DetectionMode::kBoth) {
    sched_.set_background_hook([this]() { background_sweep(); });
    sched_.set_background_period(cfg_.background_period);
  }

  {
    std::lock_guard<std::mutex> lk(g_hooks.mu);
    const bool conservative =
        cfg_.jmm_guard && cfg_.volatile_policy == VolatilePolicy::kConservative;
    if (g_hooks.count == 0) {
      g_hooks.jmm_guard = cfg_.jmm_guard;
      g_hooks.dedup_logging = cfg_.dedup_logging;
      g_hooks.conservative_volatile = conservative;
      rt::set_lazy_frame_hook(&Engine::lazy_frame_trampoline);
      heap::set_dependency_tracking(cfg_.jmm_guard);
      heap::set_dedup_logging(cfg_.dedup_logging);
      heap::set_alloc_hook(&Engine::alloc_trampoline);
      if (cfg_.jmm_guard) {
        heap::set_tracked_read_hook(&Engine::tracked_read_trampoline);
        if (conservative) {
          heap::set_volatile_write_hook(&Engine::volatile_write_trampoline);
        }
      }
    } else {
      RVK_CHECK_MSG(g_hooks.jmm_guard == cfg_.jmm_guard &&
                        g_hooks.dedup_logging == cfg_.dedup_logging &&
                        g_hooks.conservative_volatile == conservative,
                    "co-active engines must agree on barrier-programming "
                    "config (jmm_guard / dedup_logging / volatile_policy)");
    }
    ++g_hooks.count;
  }

  // Revocation-safety analyzer: per-config or process-wide via RVK_ANALYZE.
  // The engine owns the install/uninstall pairing, mirroring its other
  // process-global hooks (shared install under sharding, like the barriers).
  if (cfg_.analyze || analysis::env_enabled()) {
    analysis::Analyzer::install();
    analyzing_ = true;
  }

  // Observability recorder: per-config or process-wide via RVK_OBS.  Unlike
  // the analyzer, a recorder installed by someone else (harness, test) is
  // adopted, not re-installed: metrics accumulate across engine lifetimes
  // (the §4.1 harness builds a fresh Engine per repetition).  The recorder
  // slot is per OS thread, so every shard carries its own ring/registry and
  // they merge at export (obs/recorder.hpp).
  if ((cfg_.observe || obs::Recorder::env_enabled()) &&
      obs::Recorder::active() == nullptr) {
    obs::Recorder::install();
    observing_ = true;
  }

  if (domain_ != nullptr) {
    domain_->set_engine_ctx(this);
    domain_->set_revoker(
        [this](rt::VThread* owner, void* monitor, int boost_to) {
          return request_revocation(
              owner, *static_cast<RevocableMonitor*>(monitor),
              /*deadlock=*/false, boost_to);
        });
  } else {
    t_active_engine = this;
  }
}

Engine::~Engine() {
  // Return this engine's MonitorTable slots first: the RevocableMonitor
  // destructors unregister from monitors_, which must still be alive, and
  // no later engine may inherit a veto capturing this one.
  monitor::MonitorTable::global().release_slots_owned_by(this);
  monitor::MonitorTable::global().set_deflate_veto(this, {});
  if (observing_) obs::Recorder::uninstall();
  if (analyzing_) analysis::Analyzer::uninstall();
  // Unstamp the per-thread caches: a later engine must re-register every
  // thread, and no stale ThreadSync pointer may survive this engine.
  for (auto& [t, ts] : sync_states_) {
    t->engine_state = nullptr;
    t->lazy_frame = false;
  }
  {
    std::lock_guard<std::mutex> lk(g_hooks.mu);
    if (--g_hooks.count == 0) {
      rt::set_lazy_frame_hook(nullptr);
      heap::set_alloc_hook(nullptr);
      heap::set_tracked_read_hook(nullptr);
      heap::set_volatile_write_hook(nullptr);
      heap::set_dependency_tracking(false);
      heap::set_dedup_logging(false);
    }
  }
  sched_.set_revocation_deliverer(nullptr);
  sched_.set_stall_hook(nullptr);
  sched_.set_background_hook(nullptr);
  sched_.set_background_period(0);
  if (domain_ != nullptr) {
    domain_->set_revoker({});
    domain_->set_engine_ctx(nullptr);
  } else {
    t_active_engine = nullptr;
  }
}

RevocableMonitor* Engine::make_monitor(std::string name) {
  owned_monitors_.push_back(
      std::make_unique<RevocableMonitor>(std::move(name), *this));
  return owned_monitors_.back().get();
}

RevocableMonitor* Engine::monitor_of(const heap::HeapObject* obj) {
  RVK_CHECK_MSG(obj != nullptr, "synchronized on null object");
  // The object's header word IS the monitor association (DESIGN.md §13):
  // no nursery map, no per-object pre-allocation.  A stale word (slot
  // scavenged or released) reads as free through monitor_at's generation
  // check and re-inflates here.
  monitor::LockWord& word = const_cast<heap::HeapObject*>(obj)->meta().lock;
  monitor::MonitorTable& table = monitor::MonitorTable::global();
  if (monitor::MonitorBase* m = table.monitor_at(word)) {
    return static_cast<RevocableMonitor*>(m);
  }
  monitor::MonitorBase& m =
      table.inflate(word, "monitor:" + obj->name(),
                    monitor::InflationCause::kObjectSync, monitor_factory_,
                    /*owner_tag=*/this);
  return static_cast<RevocableMonitor*>(&m);
}

std::size_t Engine::scavenge_monitors() {
  // Under kOsThreads each shard sweeps only its own slots: a whole-table
  // sweep would run a peer engine's deflation veto against frame state that
  // peer is concurrently mutating (§16).  Cooperative/unsharded runs keep
  // the classic whole-table sweep (detached baseline slots included).
  const void* tag = nullptr;
  if (domain_ != nullptr && domain_->set() != nullptr &&
      domain_->set()->mode() == rt::DomainSet::Mode::kOsThreads) {
    tag = this;
  }
  return monitor::MonitorTable::global().scavenge(tag);
}

ThreadSync& Engine::sync_of(rt::VThread* t) {
  // The registration stamps engine_state, so the steady state is one load —
  // no hash lookup on the section hot path.  unordered_map of unique_ptr
  // keeps ThreadSync addresses stable; the destructor unstamps.
  if (t->engine_state != nullptr) [[likely]] {
    return *static_cast<ThreadSync*>(t->engine_state);
  }
  auto [it, inserted] = sync_states_.try_emplace(t);
  if (inserted) {
    it->second = std::make_unique<ThreadSync>();
    threads_by_id_[t->id()] = t;
    // Mirror the dedup toggle into the thread so the write barrier's
    // in-section path tests per-thread state only (heap::dedup_logging()
    // stays the process-wide source for the analyzer and ablations).
    t->log_dedup = cfg_.dedup_logging;
    t->engine_state = it->second.get();
  }
  return *it->second;
}

ThreadSync& Engine::sync_of_registered(rt::VThread* t) {
  // Commit/abort/boost operate only on threads whose enter_frame already
  // registered them, so the stamped pointer must exist; unlike sync_of
  // there is no insert path — these callers run inside forbidden regions
  // where allocation is barred (rvkcheck rule forbidden-region).
  RVK_CHECK_MSG(t->engine_state != nullptr,
                "engine path on a thread that never entered a section");
  return *static_cast<ThreadSync*>(t->engine_state);
}

rt::VThread* Engine::thread_by_id(std::uint32_t tid) {
  auto it = threads_by_id_.find(tid);
  return it != threads_by_id_.end() ? it->second : nullptr;
}

const ThreadSync* Engine::find_sync(const rt::VThread* t) const {
  auto it = sync_states_.find(const_cast<rt::VThread*>(t));
  return it != sync_states_.end() ? it->second.get() : nullptr;
}

// ---------------------------------------------------------------------------
// Frame lifecycle

// Lazy-frame hook body: rt calls this from yield points and blocking
// primitives; engine paths that walk the current thread's frames call
// materialize_lazy directly.
void Engine::lazy_frame_trampoline(rt::VThread* t) {
  if (Engine* e = Engine::active()) e->materialize_lazy(t);
}

void Engine::materialize_lazy(rt::VThread* t) {
  RVK_DCHECK(t->lazy_frame);
  t->lazy_frame = false;
  ThreadSync& ts = sync_of(t);
  Frame& f = ts.frames.push();
  f.monitor = ts.lazy_monitor;
  f.id = t->current_frame_id;  // allocated at the lazy grant
  f.log_mark = ts.lazy_log_mark;
  f.revocations = ts.lazy_budget_used;
  // `recursive` stays false: a biased grant never re-enters a held monitor.
  // No analyzer/obs/trace notifications: all are gated off while the fast
  // path is eligible (see enter_frame), so none missed the enter.
}

std::uint64_t Engine::lazy_enter(RevocableMonitor& m, rt::VThread* t,
                                 int budget_used) {
  // The bias grant already took ownership; record the would-be frame as the
  // lazy registers in ThreadSync (DESIGN.md §11).  sync_of is a hash hit
  // for any thread that biased a monitor (it entered a section before).
  ThreadSync& ts = sync_of(t);
  ts.lazy_monitor = &m;
  ts.lazy_log_mark = t->undo_log.watermark();
  ts.lazy_budget_used = budget_used;
  const std::uint64_t id = next_frame_id_++;
  t->current_frame_id = id;
  if (++t->sync_depth == 1) rt::enter_section(t);
  t->lazy_frame = true;
  ++stats_.sections_entered;
  return id;
}

std::uint64_t Engine::push_frame(RevocableMonitor& m, rt::VThread* t,
                                 int budget_used) {
  ThreadSync& ts = sync_of(t);
  Frame& f = ts.frames.push();
  f.monitor = &m;
  f.id = next_frame_id_++;
  f.log_mark = t->undo_log.watermark();
  f.recursive = m.recursion() > 1;
  f.revocations = budget_used;
  if (++t->sync_depth == 1) rt::enter_section(t);
  t->current_frame_id = f.id;
  ++stats_.sections_entered;
  if (cfg_.trace) jmm::Trace::record_acquire(&m);
  analysis::frame_event(
      {analysis::FrameEvent::Kind::kEnter, t, f.id, &m, &ts.frames});
  if (lifecycle_hook_ || obs::recording()) [[unlikely]] {
    emit(LifecycleEvent::Kind::kSectionEnter, t, f.id, &m);
  }
  return f.id;
}

std::uint64_t Engine::enter_frame(RevocableMonitor& m, rt::VThread* t,
                                  int budget_used) {
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);  // nested entry
  t->interrupted = false;
  // Biased lazy fast path (DESIGN.md §11): eligible only when nothing can
  // observe a deferred frame — no lifecycle hook (exploration), no analyzer,
  // no recorder, no pending revocation — and the monitor grants its bias.
  // Green-thread atomicity keeps the frame invisible until the first yield
  // point, logged write, nested entry, or blocking call materialises it, at
  // which point the section is exactly as revocable as a slow-path one.
  if (bias_enabled_ && !lifecycle_hook_ &&
      analysis::detail::g_frame_hook == nullptr && !obs::recording() &&
      !t->revoke_requested && m.bias_fast_acquire(t)) {
    return lazy_enter(m, t, budget_used);
  }
  m.acquire();  // may throw RollbackException targeting an enclosing frame
  return push_frame(m, t, budget_used);
}

std::uint64_t Engine::try_enter_frame(RevocableMonitor& m, rt::VThread* t,
                                      int budget_used, std::uint64_t ticks) {
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);  // nested entry
  t->interrupted = false;
  // The lazy fast path additionally requires no pending cancellation: a
  // cancelled thread must never slip into a section through the bias when
  // try_enter would have refused it (DESIGN.md §14).
  if (bias_enabled_ && !lifecycle_hook_ &&
      analysis::detail::g_frame_hook == nullptr && !obs::recording() &&
      !t->revoke_requested && !t->cancel_requested && m.bias_fast_acquire(t)) {
    return lazy_enter(m, t, budget_used);
  }
  // May throw RollbackException targeting an enclosing frame (revocation
  // outranks the deadline — see RevocableMonitor::try_enter).
  if (!m.try_enter(ticks)) {
    ++stats_.entry_aborts;
    return 0;
  }
  return push_frame(m, t, budget_used);
}

void Engine::commit_frame(rt::VThread* t) {
  ThreadSync& ts = sync_of_registered(t);
  if (t->lazy_frame) {
    // Lazy commit (DESIGN.md §11): the frame never materialised, so nothing
    // observed it — zero undo entries above its watermark, no speculative
    // allocations, no pin, and no revocation can name it (each of those
    // paths materialises first).  Reverting to the pre-section state is a
    // handful of scalar stores plus the bias release.
    t->lazy_frame = false;
    RevocableMonitor* m = ts.lazy_monitor;
    if (--t->sync_depth == 0) {
      ++t->section_epoch;
      rt::exit_section();
      t->current_frame_id = 0;
    } else {
      t->current_frame_id = ts.frames.back().id;
    }
    m->bias_fast_release(t);
    ++stats_.sections_committed;
    return;
  }
  // Commit is undo-discard + release with no yield point in between (the
  // atomicity §3.1.2 relies on); the guard makes the analyzer's switch
  // probe prove it.  No-op unless the analyzer enabled region marking.
  rt::ForbiddenRegionGuard region(t);
  RVK_CHECK_MSG(!ts.frames.empty(), "commit with no active frame");
  analysis::frame_event({analysis::FrameEvent::Kind::kCommit, t,
                         ts.frames.back().id, ts.frames.back().monitor,
                         &ts.frames});
  Frame& f = ts.frames.back();
  ts.frames.pop();  // f stays valid: pooled storage is never destroyed
  if (f.nonrevocable) {
    // Pinned frame leaving the stack; forbidden-safe obs path (§2.2 pins
    // are upward-closed, so unpins happen strictly at frame exit).
    obs::on_engine(obs::EventKind::kUnpin, t, f.id, f.monitor);
  }

  // Allocations stay speculative until the outermost commit: migrate them
  // to the parent frame (which may still abort and reclaim them).
  if (!ts.frames.empty() && !f.allocs.empty()) {
    Frame& parent = ts.frames.back();
    // rvkcheck:allow(alloc): migrating the speculative-alloc list may grow
    // the parent's pooled vector; vector growth cannot switch under green
    // threads (revisit for M:N — ROADMAP item 1).
    parent.allocs.insert(parent.allocs.end(), f.allocs.begin(),
                         f.allocs.end());
  }
  --t->sync_depth;
  if (ts.frames.empty()) {
    t->current_frame_id = 0;
    if (t->sync_depth == 0) rt::exit_section();
  } else {
    t->current_frame_id = ts.frames.back().id;
  }

  // A revocation that races with completion loses: the section's effects
  // stand and the requester acquires the monitor the ordinary way.
  if (t->revoke_requested && t->revoke_target_frame == f.id) {
    t->revoke_requested = false;
    t->revoke_target_frame = 0;
    t->revoke_is_deadlock = false;
    ++stats_.revocations_lost_to_commit;
    end_boost(t);
    emit(LifecycleEvent::Kind::kRevocationLostToCommit, t, f.id, f.monitor);
  }

  if (ts.frames.empty()) {
    // Outermost commit: all speculative stores become permanent.
    t->undo_log.discard_all();
    if (cfg_.dedup_logging) t->dedup.clear();  // bound the filter's memory
    ++t->section_epoch;
    // rvkcheck:allow(alloc): trace diagnostic, tests/debug only (cfg_.trace
    // disables the biased fast path entirely — see EngineConfig).
    if (cfg_.trace) jmm::Trace::record_commit_outer();
  }
  // Release *after* the bookkeeping; there is no yield point in between, so
  // the whole step is atomic with respect to other threads.
  f.monitor->release();
  ++stats_.sections_committed;
  // rvkcheck:allow(alloc): trace diagnostic, tests/debug only.
  if (cfg_.trace) jmm::Trace::record_release(f.monitor);
  if (lifecycle_hook_ || obs::recording()) [[unlikely]] {
    emit(LifecycleEvent::Kind::kSectionCommit, t, f.id, f.monitor);
  }
}

void Engine::abort_frame(rt::VThread* t, std::uint64_t expected_frame) {
  // A lazy frame can only reach here via an explicit section_abort (no
  // revocation can target it — §11); materialise so the shared unwind below
  // sees a real frame.
  // rvkcheck:allow(alloc): materialisation runs before the undo-then-release
  // sequence begins (nothing reverted or released yet); its pooled frame
  // push may grow the pool, which cannot switch under green threads.
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);
  // Same atomicity contract as commit_frame: reverse replay and the
  // reserving release must complete without a switch point (§3.1.2).
  rt::ForbiddenRegionGuard region(t);
  ThreadSync& ts = sync_of_registered(t);
  RVK_CHECK_MSG(!ts.frames.empty(), "abort with no active frame");
  analysis::frame_event({analysis::FrameEvent::Kind::kAbort, t,
                         ts.frames.back().id, ts.frames.back().monitor,
                         &ts.frames});
  Frame& f = ts.frames.back();
  RVK_CHECK_MSG(f.id == expected_frame, "frame stack out of sync with unwind");
  ts.frames.pop();  // f stays valid: pooled storage is never destroyed
  if (f.nonrevocable) {
    obs::on_engine(obs::EventKind::kUnpin, t, f.id, f.monitor);
  }

  // Undo this frame's log segment (reverse replay), then release the
  // monitor — §3.1.2: "partial results … are reverted before any of the
  // locks are released".  Green threads make the sequence atomic.
  if (cfg_.trace) {
    t->undo_log.for_each_above_reverse(f.log_mark, [](const log::Entry& e) {
      // rvkcheck:allow(alloc): trace diagnostic, tests/debug only.
      jmm::Trace::record_undo(jmm::Loc{e.base, e.offset}, e.old_value);
    });
  }
  stats_.words_undone += t->undo_log.size() - f.log_mark;
  t->undo_log.rollback_to(f.log_mark);

  --t->sync_depth;
  t->current_frame_id = ts.frames.empty() ? 0 : ts.frames.back().id;
  if (ts.frames.empty()) {
    if (cfg_.dedup_logging) t->dedup.clear();
    ++t->section_epoch;
    if (t->sync_depth == 0) rt::exit_section();
  }

  // Reclaim this frame's speculative allocations: the undo replay above
  // removed every heap reference to them, so they are unreachable — the
  // section's allocations "never happened" along with its stores.
  for (auto& [alloc_heap, obj] : f.allocs) {
    // Any lazily inflated object monitor rides along: ~ObjectMeta releases
    // the lock word's table slot (quiesce-or-detach) when free() destroys
    // the object — nothing to unmap here.
    alloc_heap->free(obj);
    ++stats_.spec_allocs_reclaimed;
  }

  // release_reserving: the waiter that forced this rollback (or the best
  // waiter overall) gets the monitor next; the victim's retry may not barge
  // back in (§4: "the high-priority thread acquires control").
  f.monitor->release_reserving();
  ++stats_.frames_aborted;
  if (cfg_.trace) {
    // rvkcheck:allow(alloc): trace diagnostics, tests/debug only.
    jmm::Trace::record_abort_frame(f.id);
    // rvkcheck:allow(alloc): trace diagnostics, tests/debug only.
    jmm::Trace::record_release(f.monitor);
  }
  if (lifecycle_hook_ || obs::recording()) [[unlikely]] {
    emit(LifecycleEvent::Kind::kSectionAbort, t, f.id, f.monitor);
  }
}

void Engine::after_rollback_backoff(rt::VThread* t, int retries,
                                    bool deadlock_victim) {
  (void)t;
  std::uint64_t base = cfg_.retry_backoff_ticks;
  if (deadlock_victim) base = std::max(base, cfg_.deadlock_backoff_ticks);
  if (base == 0) return;
  const std::uint64_t capped =
      std::min<std::uint64_t>(base * static_cast<std::uint64_t>(retries),
                              base * 16);
  sched_.sleep_for(capped);
}

// ---------------------------------------------------------------------------
// Low-level section protocol (interpreter-style clients)

std::uint64_t Engine::section_enter(RevocableMonitor& m, int retries) {
  rt::VThread* t = sched_.current_thread();
  RVK_CHECK_MSG(t != nullptr, "section_enter outside a green thread");
  return enter_frame(m, t, retries);
}

std::uint64_t Engine::try_section_enter(RevocableMonitor& m,
                                        std::uint64_t ticks, int retries) {
  rt::VThread* t = sched_.current_thread();
  RVK_CHECK_MSG(t != nullptr, "try_section_enter outside a green thread");
  return try_enter_frame(m, t, retries, ticks);
}

void Engine::section_commit() {
  rt::VThread* t = sched_.current_thread();
  RVK_CHECK_MSG(t != nullptr, "section_commit outside a green thread");
  commit_frame(t);
}

void Engine::section_abort() {
  rt::VThread* t = sched_.current_thread();
  RVK_CHECK_MSG(t != nullptr, "section_abort outside a green thread");
  abort_frame(t, t->current_frame_id);
}

std::uint64_t Engine::current_frame() const {
  rt::VThread* t = sched_.current_thread();
  return t != nullptr ? t->current_frame_id : 0;
}

void Engine::finish_rollback(const RollbackException& e, int retries) {
  rt::VThread* t = sched_.current_thread();
  RVK_CHECK_MSG(t != nullptr, "finish_rollback outside a green thread");
  t->in_rollback = false;
  end_boost(t);
  ++stats_.rollbacks_completed;
  // Rollback complete, body about to re-execute: closes the obs
  // rollback-latency window opened at kRevokeRequest.  Before the backoff
  // sleep, so the histogram measures the mechanism, not the config knob.
  obs::on_engine(obs::EventKind::kSectionRetry, t, e.target_frame(), nullptr,
                 static_cast<std::uint64_t>(retries));
  after_rollback_backoff(t, retries, e.deadlock_victim());
}

// ---------------------------------------------------------------------------
// Revocation protocol

void Engine::deliver(rt::VThread* t) {
  const std::uint64_t target = t->revoke_target_frame;
  const bool deadlock = t->revoke_is_deadlock;
  t->revoke_requested = false;
  t->revoke_is_deadlock = false;
  t->revoke_target_frame = 0;

  // A revocation target held a monitor inside a section, so it is
  // registered; the find-only lookup keeps deliver's effect set tight.
  ThreadSync& ts = sync_of_registered(t);
  Frame* f = nullptr;
  for (Frame& fr : ts.frames) {
    if (fr.id == target) {
      f = &fr;
      break;
    }
  }
  if (f == nullptr) {
    // The section ended (or was already rolled back) before delivery.
    ++stats_.revocations_dropped_stale;
    end_boost(t);
    emit(LifecycleEvent::Kind::kRevocationDroppedStale, t, target, nullptr);
    return;
  }
  if (f->nonrevocable) {
    // Pinned after the request was posted; revoking now would violate the
    // JMM (§2.2) — the request is refused and the requester waits normally.
    ++stats_.revocations_denied_pinned;
    end_boost(t);
    emit(LifecycleEvent::Kind::kRevocationDeniedPinned, t, target, f->monitor);
    return;
  }
  t->in_rollback = true;
  // The analyzer audits the delivery: the unwind aborts every frame with
  // id >= target, none of which may be pinned (upward closure, §2.2).
  analysis::frame_event(
      {analysis::FrameEvent::Kind::kDeliver, t, target, nullptr, &ts.frames});
  emit(LifecycleEvent::Kind::kRevocationDelivered, t, target, f->monitor);
  throw RollbackException(target, deadlock);
}

void Engine::begin_boost(rt::VThread* victim, int boost_to) {
  if (!cfg_.boost_victim || boost_to <= victim->priority()) return;
  ThreadSync& ts = sync_of(victim);
  if (ts.boost_restore_priority < 0) {
    ts.boost_restore_priority = victim->priority();
  }
  victim->set_priority(boost_to);
}

void Engine::end_boost(rt::VThread* t) {
  // Runs inside commit_frame's forbidden region: registered-only lookup.
  ThreadSync& ts = sync_of_registered(t);
  if (ts.boost_restore_priority >= 0) {
    t->set_priority(ts.boost_restore_priority);
    ts.boost_restore_priority = -1;
  }
}

bool Engine::request_revocation(rt::VThread* owner, RevocableMonitor& m,
                                bool deadlock, int boost_to) {
  ThreadSync& ts = sync_of(owner);
  Frame* f = ts.oldest_frame_of(&m);
  if (f == nullptr) return false;  // monitor taken outside synchronized()
  if (f->nonrevocable) {
    ++stats_.revocations_denied_pinned;
    emit(LifecycleEvent::Kind::kRevocationDeniedPinned, owner, f->id, &m);
    return false;
  }
  if (f->revocations >= cfg_.revocation_budget) {
    // Livelock guard: refuse further revocations of this section instance.
    // The pin keeps §2.2's upward closure — pinning a frame pins its
    // enclosing frames — so when `f` is a nested entry the pinned frames
    // stay a prefix of the stack (which the analyzer audits).
    for (Frame& g : ts.frames) {
      if (g.id > f->id) break;  // entered after f: not enclosing
      if (!g.nonrevocable) {
        g.nonrevocable = true;
        g.pin_reason = PinReason::kBudget;
      }
    }
    analysis::frame_event(
        {analysis::FrameEvent::Kind::kPin, owner, f->id, nullptr, &ts.frames});
    ++stats_.revocations_denied_budget;
    emit(LifecycleEvent::Kind::kRevocationDeniedBudget, owner, f->id, &m);
    return false;
  }
  ++stats_.revocations_requested;
  emit(LifecycleEvent::Kind::kRevocationRequested, owner, f->id, &m);
  if (owner->revoke_requested) {
    // Merge with the pending request; the outermost target wins so the
    // unwind satisfies both, and "deadlock" is sticky.
    owner->revoke_target_frame =
        std::min(owner->revoke_target_frame, f->id);
    owner->revoke_is_deadlock |= deadlock;
  } else {
    owner->revoke_requested = true;
    owner->revoke_target_frame = f->id;
    owner->revoke_is_deadlock = deadlock;
  }
  // Until the rollback completes the victim needs CPU to reach a yield
  // point; under a priority scheduler it inherits the cleared thread's
  // priority for that window (no-op under round-robin).
  begin_boost(owner, boost_to);
  // A blocked or sleeping victim must be woken to serve the request; a
  // runnable one observes it at its next yield point.
  sched_.interrupt(owner);
  return true;
}

void Engine::on_contended_acquire(rt::VThread* t, RevocableMonitor& m) {
  if (!cfg_.revocation_enabled) return;
  rt::VThread* owner = m.owner();
  if (owner == nullptr) return;

  if (cfg_.detection == DetectionMode::kAtAcquire ||
      cfg_.detection == DetectionMode::kBoth) {
    // §4: compare against the priority deposited in the monitor header.
    if (t->priority() > m.deposited_priority()) {
      ++stats_.inversions_detected_acquire;
      request_revocation(owner, m, /*deadlock=*/false,
                         /*boost_to=*/t->priority());
    }
  }
  if (cfg_.deadlock_detection && cfg_.deadlock_at_acquire) {
    detect_and_break_deadlock(t, m);
  }
}

void Engine::on_blocked(rt::VThread* t, RevocableMonitor& m) {
  waits_for_[t] = &m;
}

void Engine::on_unblocked(rt::VThread* t, RevocableMonitor& m) {
  auto it = waits_for_.find(t);
  if (it != waits_for_.end() && it->second == &m) waits_for_.erase(it);
}

void Engine::on_wait_pin(rt::VThread* t) {
  // Object.wait() inside a section: the release at wait() publishes the
  // section's prior updates (a happens-before edge to the next acquirer),
  // and a revocation after wait() returns could not re-deliver the consumed
  // notification.  Pin every active frame (§2.2; see DESIGN.md for the
  // nested/non-nested discussion).
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);
  ThreadSync& ts = sync_of(t);
  bool pinned = false;
  for (Frame& f : ts.frames) {
    if (!f.nonrevocable) {
      f.nonrevocable = true;
      f.pin_reason = PinReason::kWait;
      ++stats_.frames_pinned;
      pinned = true;
      if (cfg_.trace) jmm::Trace::record_pin(f.id);
    }
  }
  if (pinned) {
    analysis::frame_event({analysis::FrameEvent::Kind::kPin, t,
                           t->current_frame_id, nullptr, &ts.frames});
    emit(LifecycleEvent::Kind::kFramePinned, t, t->current_frame_id, nullptr);
  }
}

void Engine::pin_current_frames(PinReason reason) {
  rt::VThread* t = sched_.current_thread();
  if (t == nullptr) return;
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);
  ThreadSync& ts = sync_of(t);
  bool pinned = false;
  for (Frame& f : ts.frames) {
    if (!f.nonrevocable) {
      f.nonrevocable = true;
      f.pin_reason = reason;
      ++stats_.frames_pinned;
      pinned = true;
      if (cfg_.trace) jmm::Trace::record_pin(f.id);
    }
  }
  if (pinned) {
    analysis::frame_event({analysis::FrameEvent::Kind::kPin, t,
                           t->current_frame_id, nullptr, &ts.frames});
    emit(LifecycleEvent::Kind::kFramePinned, t, t->current_frame_id, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Deadlock detection (§1.1)

bool Engine::detect_and_break_deadlock(rt::VThread* t, RevocableMonitor& m) {
  // Build the waits-for chain t → m → owner(m) → its monitor → …  Each
  // thread blocks on at most one monitor, so the walk is linear; it closes a
  // cycle iff it returns to `t`.
  struct Link {
    rt::VThread* holder;
    RevocableMonitor* monitor;  // held by `holder`; previous party waits on it
  };
  std::vector<Link> chain;
  RevocableMonitor* cur_mon = &m;
  rt::VThread* cur = m.owner();
  while (cur != nullptr) {
    // A cycle that does not pass through `t` (possible when an earlier
    // detection could not break it — all members pinned) would make this
    // walk orbit forever; a revisited thread ends it instead.
    for (const Link& seen : chain) {
      if (seen.holder == cur) return false;
    }
    chain.push_back(Link{cur, cur_mon});
    if (cur == t) break;
    auto it = waits_for_.find(cur);
    if (it == waits_for_.end()) return false;  // chain ends: no cycle
    cur_mon = it->second;
    cur = cur_mon->owner();
  }
  if (cur != t) return false;
  ++stats_.deadlocks_detected;
  emit(LifecycleEvent::Kind::kDeadlockDetected, t, 0, &m);

  // Victim selection: the lowest-priority cycle member whose section for its
  // cycle monitor is still revocable.
  const Link* victim = nullptr;
  for (const Link& link : chain) {
    Frame* f = sync_of(link.holder).oldest_frame_of(link.monitor);
    if (f == nullptr || f->nonrevocable ||
        f->revocations >= cfg_.revocation_budget) {
      continue;
    }
    if (victim == nullptr ||
        link.holder->priority() < victim->holder->priority()) {
      victim = &link;
    }
  }
  if (victim == nullptr) return false;  // unresolvable (all pinned)

  // Clear the way for the highest-priority thread queued on the victim's
  // cycle monitor (or at least the requester).
  int boost_to = t->priority();
  if (rt::VThread* w = victim->monitor->entry_queue().peek_best()) {
    boost_to = std::max(boost_to, w->priority());
  }
  if (request_revocation(victim->holder, *victim->monitor,
                         /*deadlock=*/true, boost_to)) {
    ++stats_.deadlocks_broken;
    emit(LifecycleEvent::Kind::kDeadlockBroken, victim->holder, 0,
         victim->monitor);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scheduler-context hooks

void Engine::background_sweep() {
  if (!cfg_.revocation_enabled) return;
  for (RevocableMonitor* m : monitors_) {
    rt::VThread* owner = m->owner();
    if (owner == nullptr) continue;
    if (m->entry_queue().has_waiter_above(m->deposited_priority())) {
      ++stats_.inversions_detected_background;
      const rt::VThread* w = m->entry_queue().peek_best();
      request_revocation(owner, *m, /*deadlock=*/false,
                         /*boost_to=*/w != nullptr ? w->priority() : 0);
    }
  }
}

bool Engine::on_stall() {
  if (!cfg_.revocation_enabled || !cfg_.deadlock_detection) return false;
  // Nothing is runnable; look for a breakable cycle among blocked threads.
  // Walk threads in spawn order (not unordered_map order, which varies
  // across processes) so victim selection — and therefore every schedule
  // downstream of it — is identical on record and replay (DESIGN.md §9).
  for (rt::VThread* t : sched_.threads()) {
    auto it = waits_for_.find(t);
    if (it == waits_for_.end()) continue;
    if (detect_and_break_deadlock(t, *it->second)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// JMM guard (§2.2)

void Engine::pin_frames_up_to(rt::VThread* writer, std::uint64_t frame_id,
                              PinReason reason) {
  ThreadSync& ts = sync_of(writer);
  bool pinned = false;
  for (Frame& f : ts.frames) {
    if (f.id > frame_id) break;  // entered after the write: unaffected
    if (!f.nonrevocable) {
      f.nonrevocable = true;
      f.pin_reason = reason;
      ++stats_.frames_pinned;
      pinned = true;
      if (cfg_.trace) jmm::Trace::record_pin(f.id);
    }
  }
  if (pinned) {
    analysis::frame_event({analysis::FrameEvent::Kind::kPin, writer, frame_id,
                           nullptr, &ts.frames});
    emit(LifecycleEvent::Kind::kFramePinned, writer, frame_id, nullptr);
  }
}

void Engine::on_tracked_read(heap::ObjectMeta& meta) {
  // Fast path first: in monitor-mediated workloads nearly every marked read
  // is a thread re-reading its own speculation, which needs no map lookup.
  rt::VThread* reader = sched_.current_thread();
  if (reader != nullptr && meta.writer_tid == reader->id()) {
    if (reader->section_epoch == meta.writer_epoch && reader->sync_depth > 0) {
      return;  // own live speculation
    }
    meta.clear();  // own stale mark
    return;
  }
  rt::VThread* writer = thread_by_id(meta.writer_tid);
  if (writer == nullptr) {
    meta.clear();
    return;
  }
  if (writer->section_epoch != meta.writer_epoch || writer->sync_depth == 0) {
    meta.clear();  // the writing section instance is over: mark is stale
    return;
  }
  // A read-write dependency escaped the writer's section: every frame that
  // would undo the write on rollback becomes non-revocable (§2.2).
  ++stats_.foreign_reads_observed;
  pin_frames_up_to(writer, meta.writer_frame, PinReason::kDependency);
}

void Engine::on_volatile_write() {
  pin_current_frames(PinReason::kVolatile);
}

void Engine::tracked_read_trampoline(heap::ObjectMeta& meta,
                                     const void* base) {
  (void)base;
  if (Engine* e = Engine::active()) e->on_tracked_read(meta);
}

void Engine::volatile_write_trampoline(const void* var) {
  (void)var;
  if (Engine* e = Engine::active()) e->on_volatile_write();
}

void Engine::alloc_trampoline(heap::Heap* heap, heap::HeapObject* obj) {
  if (Engine* e = Engine::active()) e->on_alloc(heap, obj);
}

void Engine::on_alloc(heap::Heap* heap, heap::HeapObject* obj) {
  rt::VThread* t = sched_.current_thread();
  if (t == nullptr || t->sync_depth == 0) return;  // not speculative
  if (t->lazy_frame) [[unlikely]] materialize_lazy(t);
  ThreadSync& ts = sync_of(t);
  ts.frames.back().allocs.emplace_back(heap, obj);
}

// ---------------------------------------------------------------------------
// Observability

void Engine::emit(LifecycleEvent::Kind kind, rt::VThread* t,
                  std::uint64_t frame, RevocableMonitor* m) {
  if (lifecycle_hook_) [[unlikely]] {
    lifecycle_hook_(LifecycleEvent{kind, t, frame, m});
  }
  if (!obs::recording()) [[likely]] return;
  // Lifecycle kinds are the protocol state machine; obs event kinds are the
  // trace vocabulary.  The mapping folds the four refusal/drop variants into
  // kRevokeDenied/kRevokeDropped with the reason in the payload.
  using K = LifecycleEvent::Kind;
  using E = obs::EventKind;
  switch (kind) {
    case K::kSectionEnter:
      obs::on_engine(E::kSectionEnter, t, frame, m);
      break;
    case K::kSectionCommit:
      obs::on_engine(E::kSectionCommit, t, frame, m);
      break;
    case K::kSectionAbort:
      obs::on_engine(E::kSectionAbort, t, frame, m);
      break;
    case K::kRevocationRequested:
      obs::on_engine(E::kRevokeRequest, t, frame, m);
      break;
    case K::kRevocationDelivered:
      obs::on_engine(E::kRevokeDeliver, t, frame, m);
      break;
    case K::kRevocationDeniedPinned:
      obs::on_engine(E::kRevokeDenied, t, frame, m, /*aux=*/0);
      break;
    case K::kRevocationDeniedBudget:
      obs::on_engine(E::kRevokeDenied, t, frame, m, /*aux=*/1);
      break;
    case K::kRevocationDroppedStale:
    case K::kRevocationLostToCommit:
      obs::on_engine(E::kRevokeDropped, t, frame, m);
      break;
    case K::kFramePinned:
      obs::on_engine(E::kPin, t, frame, m);
      break;
    case K::kDeadlockDetected:
      // Detection without resolution is registry-visible (EngineStats) but
      // not a trace moment; kDeadlockBreak marks the victim.
      break;
    case K::kDeadlockBroken:
      obs::on_engine(E::kDeadlockBreak, t, frame, m);
      break;
  }
}

void Engine::publish_metrics(obs::Registry& reg) {
  obs::publish(reg, stats(), "engine.");
  obs::publish(reg, monitor::MonitorTable::global().stats(), "montable.");
  for (const RevocableMonitor* m : monitors_) {
    obs::publish(reg, m->stats(), "monitor." + m->name() + ".stats.");
  }
}

// ---------------------------------------------------------------------------
// Statistics

const EngineStats& Engine::stats() {
  stats_.log_appends = 0;
  for (const auto& [t, ts] : sync_states_) {
    stats_.log_appends += t->undo_log.stats().appends;
  }
  return stats_;
}

void Engine::reset_stats() {
  stats_ = EngineStats{};
  for (const auto& [t, ts] : sync_states_) t->undo_log.reset_stats();
}

}  // namespace rvk::core
