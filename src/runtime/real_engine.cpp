#include "runtime/real_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "analyze/auditor.h"
#include "core/worksteal_sched.h"
#include "obs/counters.h"
#include "obs/edges.h"
#include "replay/log.h"
#include "resil/faults.h"
#include "resil/watchdog.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/timer.h"

#if DFTH_REPLAY
#include "replay/replay_sched.h"
#endif

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kRealStackFloor = 64 << 10;
/// How long the last worker to go idle waits for a wake before it declares
/// a deadlock (a bound thread or an in-flight wake may be about to ready
/// someone).
constexpr std::uint64_t kStuckGraceNs = 500'000'000;

thread_local void* tl_worker = nullptr;  // RealEngine::Worker*
thread_local Tcb* tl_bound = nullptr;    // bound thread's own Tcb

// Thread-id allocation goes through the replay session when one is active:
// the raw atomic's assignment order is itself a recorded (and replayed)
// decision, so a replayed run names every fiber identically.
std::uint64_t take_tid(std::atomic<std::uint64_t>& next) {
#if DFTH_REPLAY
  if (auto* rs = ::dfth::replay::active()) {
    return rs->alloc_tid(next, ::dfth::replay::self_actor());
  }
#endif
  return next++;
}

// True while a same-engine replay still pins dispatches to the log. Idle
// lanes then wait in the session's gate for their next record instead of
// parking: the gate, not a scheduler notification, admits them.
bool replay_pins_dispatch() {
#if DFTH_REPLAY
  auto* rs = replay::active();
  return rs != nullptr && rs->mode() == replay::Mode::Replay &&
         !rs->replay_exhausted();
#else
  return false;
#endif
}

// A SpawnReg record's b: the placement flags plus the live-thread count the
// spawn observed. live_ is one atomic across every lock domain, so a pinned
// replay cannot reproduce its increment order; it reads the recorded count
// back into *live instead.
std::uint64_t spawn_record_b(std::uint64_t flags, std::int64_t* live) {
  const int shift = ::dfth::replay::kSpawnLiveShift;
#if DFTH_REPLAY
  if (auto* rs = replay::active()) {
    *live = static_cast<std::int64_t>(
        rs->spawn_flags_hint(static_cast<std::uint64_t>(*live) << shift) >> shift);
  }
#endif
  return flags | (static_cast<std::uint64_t>(*live) << shift);
}

void push_created(std::atomic<Tcb*>& head, Tcb* t) {
  t->created_next = head.load(std::memory_order_relaxed);
  while (!head.compare_exchange_weak(t->created_next, t,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void RealEngine::LaneCounters::add_to(RunStats* s) const {
  s->threads_created += threads_created;
  s->dummy_threads += dummy_threads;
  s->max_live_threads = std::max(s->max_live_threads, max_live_threads);
  s->dispatches += dispatches;
  s->quota_preemptions += quota_preemptions;
  s->oom_preemptions += oom_preemptions;
  s->inline_runs += inline_runs;
  s->sync_timeouts += sync_timeouts;
  s->deadline_expirations += deadline_expirations;
  s->sched_lock_sections += sched_lock_sections;
}

// Both accessors are noinline on purpose: fibers migrate between kernel
// threads, and a thread-local read cached across a context switch would
// observe another worker's state (see engine.h).
__attribute__((noinline)) RealEngine::Worker* RealEngine::this_worker() {
  return static_cast<Worker*>(tl_worker);
}

__attribute__((noinline)) Tcb* RealEngine::current() {
  if (Worker* w = this_worker()) return w->current;
  return tl_bound;
}

int RealEngine::trace_lane() const {
  Worker* w = this_worker();
  return w ? w->id : opts_.nprocs;
}

template <typename F>
void RealEngine::count(Worker* w, F&& f) {
  if (w) {
    f(w->counters);
    return;
  }
  ColdSection s(*this);
  f(ext_counters_);
}

void RealEngine::bump_progress(Worker* w) {
  if (w) {
    // Only w's kernel thread writes its counter.
    w->progress.store(w->progress.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  } else {
    ext_progress_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RealEngine::remember(Tcb* t) {
  Worker* w = this_worker();
  push_created(w ? w->created : ext_created_, t);
}

template <typename F>
void RealEngine::for_each_tcb(F&& f) const {
  auto walk = [&f](const std::atomic<Tcb*>& head) {
    for (Tcb* t = head.load(std::memory_order_acquire); t != nullptr;) {
      Tcb* next = t->created_next;
      f(t);
      t = next;
    }
  };
  walk(ext_created_);
  for (const Worker& w : workers_) walk(w.created);
}

RealEngine::RealEngine(const RuntimeOptions& opts) : opts_(opts) {
  DFTH_CHECK(opts_.nprocs >= 1);
#if DFTH_REPLAY
  if (auto* rs = replay::active();
      rs != nullptr && rs->mode() == replay::Mode::Replay) {
    // Schedule-pinned replay: serve the logged dispatch outcomes instead of
    // re-running the recorded policy (see replay/replay_sched.h for why the
    // policy itself cannot be replayed through).
    sched_ = std::make_unique<replay::ReplayScheduler>(
        rs, opts_.sched, replay::ReplayScheduler::Pinning::Pin);
  }
#endif
  if (!sched_) {
    sched_ = make_scheduler(opts_.sched, opts_.nprocs, opts_.seed,
                            opts_.cluster_size);
  }
  ndomains_ = sched_->domains();
  // A recording or a pinned replay must order every ready in a section.
  posts_ = ndomains_ == 1 && !replay::pinned();
  domains_ = std::make_unique<Domain[]>(static_cast<std::size_t>(ndomains_));
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);
  stats_.engine = EngineKind::Real;
  stats_.sched = opts_.sched;
  stats_.nprocs = opts_.nprocs;
}

RealEngine::~RealEngine() {
  for_each_tcb([](Tcb* t) {
    if (t->stack) StackPool::instance().release(t->stack);
    context_destroy(&t->ctx);
    delete t;
  });
}

Tcb* RealEngine::make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy) {
  Tcb* t = new Tcb(take_tid(next_tid_));
  remember(t);
  t->attr = attr;
  if (t->attr.stack_size == 0) t->attr.stack_size = opts_.default_stack_size;
  DFTH_CHECK(t->attr.priority >= 0 && t->attr.priority < kNumPriorities);
  t->entry = std::move(fn);
  t->is_dummy = is_dummy;
  t->detached = attr.detached;
  if (!t->attr.bound) {
    // Real stacks honor the requested size but keep a floor under the
    // benchmarks' serial base cases.
    t->stack = StackPool::instance().acquire(std::max(t->attr.stack_size, kRealStackFloor));
    if (t->stack && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kCtxCreate)) {
      StackPool::instance().release(t->stack);
      t->stack = Stack{};
      // The inline-run fallback in spawn() absorbs this.
      DFTH_FAULT_RECOVERED(resil::FaultSite::kCtxCreate);
    }
    if (t->stack) {
      context_make(&t->ctx, t->stack.base, t->stack.top(), &fiber_entry, t);
      obs::edges::stack([this] { return trace_lane(); }, t, t->stack.size,
                        t->stack.fresh);
    }
  }
  return t;
}

void RealEngine::fiber_entry(void* arg) {
  Tcb* t = static_cast<Tcb*>(arg);
  t->result = t->entry();
  t->entry = nullptr;
  auto* self = static_cast<RealEngine*>(engine());
  // No switch before the final one below, so w stays this fiber's worker.
  Worker* w = this_worker();
  // Flush the final slice and seal the span *before* the joiner is woken —
  // the wake edge must read the fiber's finished span. run_fiber skips its
  // post-switch charge on ExitCleanup so nothing double-counts; the slice
  // restarts so the wake edge's offset covers only the exit itself.
  obs::edges::exit(w->id, t, [w] {
    const std::uint64_t now = steady_now_ns();
    const std::uint64_t ns = now - w->slice_start_ns;
    w->slice_start_ns = now;
    return ns;
  });
  Tcb* joiner = self->publish_exit(t);
  if (joiner != nullptr) {
    self->note_wake(joiner);
    if (joiner->attr.bound) {
      // A bound joiner spins on its own state word (see wake()).
      joiner->state.store(ThreadState::Ready, std::memory_order_release);
      joiner = nullptr;
    }
  }
  t->state.store(ThreadState::Done, std::memory_order_release);
  // The scheduler side of the exit (unregister, live_, the joiner's wake)
  // joins the worker's next section.
  w->post = Post::ExitCleanup;
  w->post_fiber = t;
  w->post_next = joiner;
  context_switch_final(&t->ctx, &w->ctx);
}

Tcb* RealEngine::publish_exit(Tcb* t) {
  DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  t->finished = true;
  Tcb* joiner = t->joiner;
  t->joiner = nullptr;
  // The exit-vs-join race on join_lock decides whether the joiner blocks;
  // b records which joiner (0 = none yet) so replay verifies the outcome.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitJoin,
                     ::dfth::replay::self_actor(), t->id,
                     joiner ? joiner->id : 0);
  t->join_lock.unlock();
  return joiner;
}

void RealEngine::finish_bound_thread(Tcb* t) {
  bool done;
  DFTH_REPLAY_GATE_SELF();
  {
    ColdSection s(*this);
    bound_live_.fetch_sub(1, std::memory_order_relaxed);
    bump_progress(nullptr);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitSched,
                       ::dfth::replay::self_actor(), t->id, 0);
    done = live_.fetch_sub(1, std::memory_order_relaxed) == 1;
    if (done) done_.store(true, std::memory_order_release);
  }
  if (done) wake_all();
  if (Tcb* joiner = publish_exit(t)) wake(joiner);
}

Tcb* RealEngine::spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                       const char* site_file, int site_line) {
  const std::uint64_t fork_t0 = steady_now_ns();
  Tcb* child = make_tcb(std::move(fn), attr, is_dummy);
  child->site_file = site_file;
  child->site_line = site_line;
  Worker* w = this_worker();
  Tcb* parent = current();
  child->parent = parent;
  // Deadline propagation: a child without its own cancellation scope joins
  // the parent's, so a request's token covers the whole spawn subtree.
  child->cancel =
      attr.cancel != nullptr ? attr.cancel : (parent ? parent->cancel : nullptr);
  // Fork edge, taken before the child is published to the scheduler —
  // another worker may dispatch it (and charge work to it) the moment it
  // is ready. The offset is the parent's uncharged partial
  // slice so the child inherits the span as of *now*, not slice start.
  obs::edges::fork(w ? w->id : opts_.nprocs, parent, child, [&] {
    return (w && parent && !parent->attr.bound)
               ? steady_now_ns() - w->slice_start_ns
               : 0;
  });

  if (child->attr.bound) {
    DFTH_REPLAY_GATE_SELF();
    {
      ColdSection s(*this);
      std::int64_t live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
      bound_live_.fetch_add(1, std::memory_order_relaxed);
      [[maybe_unused]] const std::uint64_t b =
          spawn_record_b(::dfth::replay::kSpawnBound, &live);
      LaneCounters& c = w ? w->counters : ext_counters_;
      ++c.threads_created;
      c.max_live_threads = std::max(c.max_live_threads, live);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::self_actor(), child->id, b);
    }
    start_bound_thread(child);
    return child;
  }

  if (!child->stack) return run_inline(child);

  // Counted live before it is published: its exit may follow at once.
  std::int64_t live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
  // A bound (or engine-external) caller has no worker to preempt. The gate
  // comes first: a pinned replay answers dives() from the gated record.
  DFTH_REPLAY_GATE_SELF();
  const bool preempt =
      w && parent && !parent->attr.bound && sched_->dives(parent, child);
  // A fork dive's registration, parent requeue and child dispatch wait for
  // the lane's post-switch step: the parent is published only once it is
  // saved.
  if (posts_ && w) {
    if (!preempt) post(*w, child, PostKind::Spawn);
  } else {
    {
      Section s(*this, own_domain(w), w);
      sched_->register_thread(parent, child);
      // b is the *effective* decision (fork dive or queued), which is what
      // replay must pin.
      [[maybe_unused]] const std::uint64_t b =
          spawn_record_b(preempt ? ::dfth::replay::kSpawnPreempt : 0, &live);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::self_actor(), child->id, b);
      if (!preempt) {
        DFTH_DCHECK(sched_->ready_domain(child, w ? w->id : 0) == own_domain(w));
        make_ready_locked(child, w ? w->id : 0, w);
      }
    }
    if (!preempt) wake_idle();
  }
  count(w, [&](LaneCounters& c) {
    ++c.threads_created;
    if (is_dummy) ++c.dummy_threads;
    c.max_live_threads = std::max(c.max_live_threads, live);
  });
  obs::edges::fork_cost(child, [fork_t0] { return steady_now_ns() - fork_t0; });

  if (preempt) {
    obs::edges::preempt(w->id, parent, obs::kPreemptForkDive);
    w->post = Post::RunNext;
    w->post_fiber = parent;
    w->post_next = child;
    context_switch(&parent->ctx, &w->ctx);
    // Parent resumes here later, possibly on a different worker.
  }
  return child;
}

Tcb* RealEngine::run_inline(Tcb* child) {
  // Stack or context acquisition failed even after the pool's fallbacks.
  // Degrade by running the child to completion on the caller's stack: the
  // child precedes the parent's continuation in the serial depth-first
  // order, so this is the 1-processor schedule — correct, just not
  // parallel. The child is never registered with the scheduler and never
  // counted in live_ (it is already Done when the handle becomes visible).
  [[maybe_unused]] Tcb* parent = current();
  Worker* w = this_worker();
  count(w, [child](LaneCounters& c) {
    ++c.threads_created;
    ++c.inline_runs;
    if (child->is_dummy) ++c.dummy_threads;
  });
  DFTH_REPLAY_GATE_SELF();
  {
    Section s(*this, own_domain(w), w);
    if (auto* aud = analyze::active_auditor()) aud->on_inline_run(parent, child);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::self_actor(), child->id,
                       ::dfth::replay::kSpawnInline);
  }
  DFTH_COUNT(obs::Counter::InlineRuns);
  child->state.store(ThreadState::Running, std::memory_order_relaxed);
  ++child->dispatches;
  obs::edges::dispatch(w ? w->id : opts_.nprocs, child, obs::edges::DispatchCost{});
  child->result = child->entry();
  child->entry = nullptr;
  // The body's time lands in the caller's slice (it ran on the caller's
  // stack — serialized on the caller's span, which is what inline means).
  // The body may have switched, so the caller's lane is looked up anew.
  obs::edges::exit([this] { return trace_lane(); }, child);
  child->join_lock.lock();
  child->finished = true;
  child->join_lock.unlock();
  child->state.store(ThreadState::Done, std::memory_order_release);
  return child;
}

void RealEngine::start_bound_thread(Tcb* t) {
  ColdSection s(*this);
  bound_threads_.emplace_back([this, t] {
    tl_bound = t;
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    const std::uint64_t t0 = steady_now_ns();
    t->result = t->entry();
    t->entry = nullptr;
    // A bound thread is one uninterrupted slice on its own kernel thread.
    obs::edges::exit(opts_.nprocs, t, [t0] { return steady_now_ns() - t0; });
    t->state.store(ThreadState::Done, std::memory_order_release);
    finish_bound_thread(t);
    tl_bound = nullptr;
  });
}

void* RealEngine::join(Tcb* t) {
  DFTH_CHECK_MSG(!t->detached, "join of detached thread");
  DFTH_CHECK_MSG(!t->joined, "thread joined twice");
  Tcb* cur = current();
  DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  // The join-vs-exit race on join_lock decides blocking; commit the outcome
  // inside the section so replay reproduces (and verifies) it.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Join, ::dfth::replay::self_actor(),
                     t->id, t->finished ? 0 : 1);
  const bool blocks = !t->finished;
  if (!blocks) t->join_lock.unlock();
  // A finished child gives its edge here, else publish_exit's wake does.
  obs::edges::join([this] { return trace_lane(); }, cur, t, [this, cur] {
    Worker* w = this_worker();
    return (w && cur) ? steady_now_ns() - w->slice_start_ns : 0;
  });
  if (blocks) {
    DFTH_CHECK_MSG(cur, "join from outside the runtime");
    DFTH_CHECK_MSG(t->joiner == nullptr, "two concurrent joiners");
    t->joiner = cur;
    cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
    block_current(&t->join_lock);  // releases join_lock after the switch
    DFTH_CHECK(t->finished);
  }
  t->joined = true;
  return t->result;
}

void RealEngine::detach(Tcb* t) { t->detached = true; }

void RealEngine::yield() {
  Worker* w = this_worker();
  if (!w) {
    std::this_thread::yield();  // bound threads yield to the kernel
    return;
  }
  requeue(w, w->current, obs::kPreemptYield);
}

void RealEngine::requeue(Worker* w, Tcb* cur, std::uint64_t reason) {
  obs::edges::preempt(w->id, cur, reason);
  w->post = Post::Requeue;
  w->post_fiber = cur;
  context_switch(&cur->ctx, &w->ctx);
}

void RealEngine::block_current(SpinLock* guard) {
  Tcb* cur = current();
  DFTH_CHECK(cur && cur->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard->is_locked(),
                 "block_current without holding the wait-list guard");
  Worker* w = this_worker();
  obs::edges::block(w ? w->id : opts_.nprocs, cur);
  if (!w || cur->attr.bound) {
    // Bound threads have no fiber to switch away from: release the guard
    // and wait for wake() to flip the state (kernel-level blocking stand-in).
    guard->unlock();
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      std::this_thread::yield();
    }
    return;
  }
  w->post = Post::ReleaseGuard;
  w->post_guard = guard;
  context_switch(&cur->ctx, &w->ctx);
}

void RealEngine::block_current_timed(SpinLock* guard, WaitList* list,
                                     std::uint64_t timeout_ns) {
  Tcb* cur = current();
  DFTH_CHECK(cur && cur->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard != nullptr && guard->is_locked(),
                 "block_current_timed without holding the wait-list guard");
  DFTH_CHECK(list != nullptr);
  cur->timed_out = false;
  Worker* w = this_worker();
  obs::edges::block(w ? w->id : opts_.nprocs, cur);

  if (!w || cur->attr.bound) {
    // Bound threads poll with a deadline: on expiry, claim ourselves off the
    // wait list under the guard. Losing the claim means a waker popped us
    // and is about to flip our state — keep spinning for that.
    guard->unlock();
    const std::uint64_t deadline = steady_now_ns() + timeout_ns;
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      bool due = steady_now_ns() >= deadline;
#if DFTH_REPLAY
      if (auto* rs = replay::active();
          rs != nullptr && rs->mode() == replay::Mode::Replay &&
          !rs->replay_exhausted()) {
        // The deadline-vs-waker race is pinned: expire exactly when the log
        // says this waiter claimed itself, never on this run's wall clock.
        due = rs->head_is(replay::EvKind::TimeoutClaim, cur->id, nullptr);
      }
#endif
      if (due) {
        guard->lock();
        const bool claimed = list->remove(cur);
        if (claimed) {
          DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutClaim, cur->id,
                             cur->id, 0);
        }
        guard->unlock();
        if (claimed) {
          cur->timed_out = true;
          cur->state.store(ThreadState::Ready, std::memory_order_relaxed);
          count(nullptr, [](LaneCounters& c) { ++c.sync_timeouts; });
          DFTH_COUNT(obs::Counter::SyncTimeouts);
          obs::edges::wake(opts_.nprocs, nullptr, cur, 0);
          return;
        }
      }
      std::this_thread::yield();
    }
    return;
  }

  // Unbound fiber: arm the supervisor's timer *before* switching away. The
  // timer can only claim us off the wait list under the guard, which the
  // worker releases strictly after our context is saved (Post::ReleaseGuard)
  // — so a premature fire blocks on the guard until the save completes.
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sleepers_.push_back({steady_now_ns() + timeout_ns, cur, guard, list});
  }
  sup_cv_.notify_all();
  w->post = Post::ReleaseGuard;
  w->post_guard = guard;
  context_switch(&cur->ctx, &w->ctx);
  // Resumed by the timer or a waker; either way the timer entry is dead.
  cancel_sleeper(cur);
}

void RealEngine::cancel_sleeper(Tcb* t) {
  std::unique_lock<std::mutex> lk(sup_mu_);
  // An in-flight fire for t already left sleepers_ but may not have taken
  // the guard yet; wait it out or it could claim t's *next* wait.
  sup_cv_.wait(lk, [this, t] { return firing_ != t; });
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].t == t) {
      sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void RealEngine::note_wake(Tcb* t) {
  Worker* w = this_worker();
  Tcb* cur = current();
  obs::edges::wake(w ? w->id : opts_.nprocs, cur, t, [w, cur] {
    return (w && cur && !cur->attr.bound) ? steady_now_ns() - w->slice_start_ns
                                          : 0;
  });
}

void RealEngine::wake(Tcb* t) {
  note_wake(t);
  if (t->attr.bound) {
    // A bound waiter spins on its own state word; no shared scheduler state
    // is touched, so this store is not an ordered replay event (documented
    // limitation: bound-thread wake timing is not bit-pinned).
    t->state.store(ThreadState::Ready, std::memory_order_release);
    return;
  }
  // The waker may keep running (a barrier's last arrival, a spin-wait on
  // the woken fiber), so a parked worker takes the woken fiber now. A fiber
  // whose own dive registration is still posted is readied in a section,
  // which applies that registration first.
  Worker* w = this_worker();
  if (posts_ && w && !t->posted.load(std::memory_order_acquire)) {
    post(*w, t, PostKind::Wake);
    return;
  }
  ready_section(t, w, ::dfth::replay::EvKind::Wake,
                ::dfth::replay::self_actor());
}

void RealEngine::ready_section(Tcb* t, Worker* w, replay::EvKind kind,
                               std::uint64_t actor) {
  (void)kind;
  (void)actor;
  const int proc = w ? w->id : 0;
  // With one domain there is nothing to ask, and asking would read t's
  // placement, which a drain may be writing: t's registration can still be
  // posted.
  const int domain = ndomains_ == 1 ? 0 : sched_->ready_domain(t, proc);
  bool left;
  DFTH_REPLAY_GATE(actor);
  {
    Section s(*this, domain, w);
    make_ready_locked(t, proc, w);
    DFTH_REPLAY_COMMIT(kind, actor, t->id, 0);
    left = sched_->ready_in(domain) > 0;
  }
  if (left) wake_idle();
}

void RealEngine::on_alloc(std::size_t bytes, std::int64_t fresh_bytes) {
  (void)fresh_bytes;
  obs::edges::heap([this] { return trace_lane(); }, [this] { return current(); },
                   bytes, /*freed=*/false);
  if (!sched_->needs_quota()) return;
  Tcb* cur = current();
  Worker* w = this_worker();
  if (!cur || !w || cur->attr.bound) return;
  cur->quota -= static_cast<std::int64_t>(bytes);
  if (cur->quota <= 0) {
    ++w->counters.quota_preemptions;
    obs::edges::quota_exhaust(w->id, cur, bytes);
    requeue(w, cur, obs::kPreemptQuota);
  }
}

void RealEngine::on_free(std::size_t bytes) {
  obs::edges::heap([this] { return trace_lane(); }, [this] { return current(); },
                   bytes, /*freed=*/true);
}

bool RealEngine::uses_alloc_quota() const { return sched_->needs_quota(); }

bool RealEngine::on_alloc_failed(std::size_t bytes, int attempt) {
  (void)bytes;
  // Treat heap exhaustion like quota exhaustion: preempt AsyncDF-style,
  // shrink the effective K, back off, retry — bounded, then df_try_malloc
  // surfaces DfStatus::kNoMem.
  constexpr int kOomMaxAttempts = 16;
  if (attempt >= kOomMaxAttempts) return false;
  DFTH_COUNT(obs::Counter::OomPreempts);
  Tcb* cur = current();
  if (auto* aud = analyze::active_auditor()) aud->on_oom_preempt(cur);
  // The halving is an ordered decision: every later dispatch grants
  // t->quota from eff_quota_, so the quota a fiber runs with — and hence
  // where it quota-preempts — depends on how many halvings landed before
  // its dispatch. Serialize the shrink under the caller's domain lock (for
  // a one-domain policy, the lock every grant holds) and log it like any
  // other scheduling decision; a lock-free CAS here raced the grants at
  // physical timing, which record/replay cannot pin. A clustered policy's
  // other clusters grant under their own locks, unordered with the shrink.
  Worker* w = this_worker();
  count(w, [](LaneCounters& c) { ++c.oom_preemptions; });
  DFTH_REPLAY_GATE_SELF();
  {
    Section s(*this, own_domain(w), w);
    const std::size_t q = eff_quota_.load(std::memory_order_relaxed);
    std::size_t shrunk = q;
    if (q > 0) {
      shrunk = std::max<std::size_t>(q / 2, 4096);
      eff_quota_.store(shrunk, std::memory_order_relaxed);
    }
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::QuotaShrink,
                       ::dfth::replay::self_actor(), shrunk,
                       static_cast<std::uint64_t>(attempt));
  }
  // Real backoff: give concurrent frees a chance to land before retrying.
  std::this_thread::sleep_for(
      std::chrono::microseconds(50ull << std::min(attempt, 8)));
  if (cur && w && !cur->attr.bound) requeue(w, cur, obs::kPreemptOom);
  return true;
}

void RealEngine::run_fiber(Worker& w, Tcb* t) {
  w.current = t;
  w.post = Post::None;
  w.post_fiber = nullptr;
  w.post_next = nullptr;
  w.post_guard = nullptr;
  if (obs::profiler()) w.slice_start_ns = steady_now_ns();
  context_switch(&w.ctx, &t->ctx);
  if (obs::profiler()) {
    const std::uint64_t now = steady_now_ns();
    // ExitCleanup: fiber_entry already flushed the slice before sealing.
    if (w.post != Post::ExitCleanup) obs::edges::work(t, now - w.slice_start_ns);
    w.idle_since_ns = now;
  }
  w.current = nullptr;
}

void RealEngine::release_post(Worker& w) {
  if (w.post == Post::ReleaseGuard) {
    w.post_guard->unlock();
    w.post = Post::None;
  } else if (w.post == Post::ExitCleanup) {
    Tcb* t = w.post_fiber;
    context_finalize(&t->ctx);
    StackPool::instance().release(t->stack);
    t->stack = Stack{};
  }
}

Tcb* RealEngine::settle_post(Worker& w, replay::SectionLog& log) {
  // Only workers reach here, so the deciding actor is the lane, not a fiber
  // — the requeued or exited fiber's context is already detached. A fiber
  // that ran on w belongs to w's own domain, so the requeue lands there.
  const std::uint64_t lane = ::dfth::replay::lane_actor(w.id);
  Tcb* remote_joiner = nullptr;
  switch (w.post) {
    case Post::None:
    case Post::ReleaseGuard:
      break;
    case Post::Requeue:
    case Post::RunNext:
      make_ready_locked(w.post_fiber, w.id, &w);
      log.add(::dfth::replay::EvKind::Requeue, lane, w.post_fiber->id, 0);
      break;
    case Post::ExitCleanup: {
      Tcb* t = w.post_fiber;
      sched_->unregister_thread(t);
      bump_progress(&w);
      log.add(::dfth::replay::EvKind::ExitSched, lane, t->id, 0);
      if (Tcb* joiner = w.post_next) {
        if (sched_->keeps_home()) {
          remote_joiner = joiner;
        } else {
          make_ready_locked(joiner, w.id, &w);
          log.add(::dfth::replay::EvKind::Wake, lane, joiner->id, 0);
        }
      }
      if (live_.fetch_sub(1, std::memory_order_relaxed) == 1) {
        done_.store(true, std::memory_order_release);
      }
      break;
    }
  }
  w.post = Post::None;
  return remote_joiner;
}

void RealEngine::make_ready_locked(Tcb* t, int proc, Worker* w) {
  t->state.store(ThreadState::Ready, std::memory_order_relaxed);
  t->ready_at_ns = 0;
  sched_->on_ready(t, proc);
  bump_progress(w);
}

void RealEngine::post(Worker& w, Tcb* t, PostKind kind) {
  t->post_kind = static_cast<std::uint8_t>(kind);
  t->posted.store(true, std::memory_order_relaxed);
  t->post_link = w.posted.load(std::memory_order_relaxed);
  while (!w.posted.compare_exchange_weak(t->post_link, t,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
  }
  wake_idle();
}

void RealEngine::drain(Worker* w) {
  for (Worker& lane : workers_) {
    if (lane.posted.load(std::memory_order_relaxed) == nullptr) continue;
    // Newest first on the list; reverse it to apply in post order.
    Tcb* fifo = nullptr;
    for (Tcb* t = lane.posted.exchange(nullptr, std::memory_order_acquire);
         t != nullptr;) {
      Tcb* older = t->post_link;
      t->post_link = fifo;
      fifo = t;
      t = older;
    }
    while (fifo != nullptr) {
      Tcb* next = fifo->post_link;
      apply_post(fifo, lane.id, w);
      fifo = next;
    }
  }
}

void RealEngine::apply_post(Tcb* t, int proc, Worker* w) {
  switch (static_cast<PostKind>(t->post_kind)) {
    case PostKind::Spawn:
      sched_->register_thread(t->parent, t);
      make_ready_locked(t, proc, w);
      break;
    case PostKind::Dive:
      sched_->register_thread(t->parent, t);
      make_ready_locked(t->parent, proc, w);
      break;
    case PostKind::Wake:
      make_ready_locked(t, proc, w);
      break;
  }
  t->post_link = nullptr;
  t->posted.store(false, std::memory_order_release);
}

void RealEngine::begin_dispatch(Worker& w, Tcb* t, std::uint64_t flags,
                                replay::SectionLog& log) {
  t->state.store(ThreadState::Running, std::memory_order_relaxed);
  t->quota =
      static_cast<std::int64_t>(eff_quota_.load(std::memory_order_relaxed));
  ++t->dispatches;
  ++w.counters.dispatches;
  bump_progress(&w);
  // Burden: the pick's scheduler time and, but for a dive, the idle gap.
  obs::edges::dispatch(w.id, t, [&w, flags] {
    const std::uint64_t now = steady_now_ns();
    const bool dive = (flags & ::dfth::replay::kDispatchForkDive) != 0;
    const std::uint64_t gap =
        (!dive && w.idle_since_ns) ? now - w.idle_since_ns : 0;
    if (!dive) DFTH_HIST(obs::Hist::DispatchGapNs, gap);
    return obs::edges::DispatchCost{now - w.pick_start_ns, gap};
  });
  log.add(::dfth::replay::EvKind::Dispatch, ::dfth::replay::lane_actor(w.id),
          t->id, dispatch_cancel_flags(w, t, flags));
}

void RealEngine::wake_idle() {
  // Pairs with the fence in go_idle(): either this read sees the idle
  // worker's registration, or that worker's re-scan sees the work just
  // published.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (idle_count_.load(std::memory_order_relaxed) == 0) return;
  Worker* claimed = nullptr;
  {
    std::lock_guard<SpinFutexLock> g(idle_mu_);
    if (!idle_.empty()) {
      claimed = &workers_[static_cast<std::size_t>(idle_.back())];
      idle_.pop_back();
      idle_count_.fetch_sub(1, std::memory_order_relaxed);
      claimed->idle.store(false, std::memory_order_relaxed);
    }
  }
  if (claimed) claimed->parker.unpark();
}

void RealEngine::go_idle(Worker& w) {
  {
    std::lock_guard<SpinFutexLock> g(idle_mu_);
    idle_.push_back(w.id);
    w.idle.store(true, std::memory_order_relaxed);
    idle_count_.fetch_add(1, std::memory_order_seq_cst);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void RealEngine::leave_idle(Worker& w) {
  std::lock_guard<SpinFutexLock> g(idle_mu_);
  if (!w.idle.load(std::memory_order_relaxed)) return;  // claimed meanwhile
  idle_.erase(std::find(idle_.begin(), idle_.end(), w.id));
  idle_count_.fetch_sub(1, std::memory_order_relaxed);
  w.idle.store(false, std::memory_order_relaxed);
}

void RealEngine::wake_all() {
  for (Worker& w : workers_) w.parker.unpark();
  host_parker_.unpark();
}

bool RealEngine::all_stuck() const {
  return idle_count_.load(std::memory_order_relaxed) ==
             static_cast<int>(workers_.size()) &&
         live_.load(std::memory_order_relaxed) > 0 &&
         bound_live_.load(std::memory_order_relaxed) == 0 &&
         !done_.load(std::memory_order_relaxed);
}

std::size_t RealEngine::ready_total() {
  std::size_t n = 0;
  for (int d = 0; d < ndomains_; ++d) {
    std::lock_guard<SpinFutexLock> g(domains_[static_cast<std::size_t>(d)].lock);
    n += sched_->ready_in(d);
  }
  return n;
}

std::uint64_t RealEngine::now_ns() const { return steady_now_ns(); }

std::uint64_t RealEngine::dispatch_cancel_flags(Worker& w, Tcb* t,
                                                std::uint64_t base) {
  CancelToken* c = t->cancel;
  bool fire = false;
#if DFTH_REPLAY
  if (auto* rs = replay::active();
      rs != nullptr && rs->mode() == replay::Mode::Replay &&
      !rs->replay_exhausted()) {
    // Pinned replay: this lane's gate already passed and the section's
    // earlier records are committed, so the head is this very Dispatch —
    // read the recorded expire-or-not flag instead of the clock (which
    // drifts between runs). head_is failing here just means the run is
    // about to diverge; commit will diagnose that, so stay conservative and
    // don't fire.
    std::uint64_t tid = 0;
    std::uint64_t logged_b = 0;
    if (rs->head_is(replay::EvKind::Dispatch, replay::lane_actor(w.id), &tid,
                    nullptr, &logged_b) &&
        tid == t->id) {
      fire = (logged_b & replay::kDispatchDeadline) != 0;
    }
  } else
#endif
  {
    fire = c != nullptr && c->deadline_ns != 0 && !c->is_cancelled() &&
           steady_now_ns() >= c->deadline_ns;
  }
  if (!fire) return base;
  if (c != nullptr && !c->is_cancelled()) c->cancel();
  ++w.counters.deadline_expirations;
  obs::edges::preempt(w.id, t, obs::kPreemptDeadline);
  DFTH_REPLAY_CANCEL_FIRE(w.id, t->id);
  return base | ::dfth::replay::kDispatchDeadline;
}

Tcb* RealEngine::transition(Worker& w, bool dive) {
  if (dive && posts_) {
    // The child runs at once; its registration and the saved parent's
    // requeue are posted for the domain's next section.
    Tcb* child = w.post_next;
    DFTH_DCHECK(child->parent == w.post_fiber);
    replay::SectionLog log;
    begin_dispatch(w, child, ::dfth::replay::kDispatchForkDive, log);
    w.post = Post::None;
    post(w, child, PostKind::Dive);
    return child;
  }
  Tcb* t = nullptr;
  Tcb* remote_joiner;
  int steal_from = -1;
  bool left;
  // One gate and one section of the lane's own domain: the previous
  // fiber's post-switch action, then this lane's next dispatch.
  DFTH_REPLAY_GATE(::dfth::replay::lane_actor(w.id));
  {
    Section s(*this, w.domain, &w);
    replay::SectionLog log;
    remote_joiner = settle_post(w, log);
    if (dive) {
      // kDispatchForkDive: a dive, not a queue-served pick — cross-replay
      // on the simulator excludes these (they re-happen on its own spawn
      // path).
      t = w.post_next;
      begin_dispatch(w, t, ::dfth::replay::kDispatchForkDive, log);
    } else if (!done_.load(std::memory_order_relaxed)) {
      std::uint64_t earliest = kInf;
      t = sched_->pick_next(w.id, kInf, &earliest);
      if (t) {
        begin_dispatch(w, t, 0, log);
      } else if (ndomains_ > 1) {
        steal_from = sched_->steal_start(w.id);
      }
    }
    left = sched_->ready_in(w.domain) > 0;
    log.commit();
  }
  if (left) wake_idle();
  if (remote_joiner) {
    ready_section(remote_joiner, &w, ::dfth::replay::EvKind::Wake,
                  ::dfth::replay::lane_actor(w.id));
  }
  if (t || steal_from < 0) return t;
  return steal_round(w, steal_from);
}

Tcb* RealEngine::steal_round(Worker& w, int start) {
  const std::uint64_t lane = ::dfth::replay::lane_actor(w.id);
  (void)lane;
  for (int i = 0; i < ndomains_; ++i) {
    const int victim = (start + i) % ndomains_;
    // The unlocked count skips dry victims without touching their lock.
    if (victim == w.domain || sched_->ready_in(victim) == 0) continue;
    Tcb* t;
    bool left;
    DFTH_REPLAY_GATE(lane);
    {
      Section s(*this, victim, &w);
      replay::SectionLog log;
      std::uint64_t earliest = kInf;
      t = sched_->steal(w.id, victim, kInf, &earliest);
      if (t && !sched_->keeps_home()) begin_dispatch(w, t, 0, log);
      left = sched_->ready_in(victim) > 0;
      log.commit();
    }
    if (left) wake_idle();
    if (!t) continue;
    if (sched_->keeps_home()) {
      // The migrant joins this lane's domain before it runs.
      DFTH_REPLAY_GATE(lane);
      Section s(*this, w.domain, &w);
      replay::SectionLog log;
      sched_->rehome(t, w.id);
      begin_dispatch(w, t, 0, log);
      log.commit();
    }
    return t;
  }
  return nullptr;
}

void RealEngine::worker_loop(Worker& w) {
  tl_worker = &w;
  DFTH_REPLAY_BIND_LANE(w.id);
  bool stuck_timed_out = false;
  // Registered idle and not parked since: a claim landing now is a wake
  // this worker has not consumed.
  bool unparked_claim = false;
  for (;;) {
    if (obs::profiler()) w.pick_start_ns = steady_now_ns();
    // A fork dive runs the child its spawn registered, without a pick.
    const bool dive = w.post == Post::RunNext;
    Tcb* t = transition(w, dive);
    if (!t) {
      if (done_.load(std::memory_order_acquire)) {
        wake_all();
        break;
      }
      // In a pinned replay the gate does the waiting instead of the parker.
      if (replay_pins_dispatch()) continue;
      if (!w.idle.load(std::memory_order_relaxed)) {
        // Register, then scan every domain once more before parking.
        go_idle(w);
        unparked_claim = true;
        continue;
      }
      const bool stuck = all_stuck();
      if (stuck && stuck_timed_out) {
        // Nothing readied anyone during the grace period.
        dump_flight("RealEngine: deadlock — all workers idle, no ready work");
        DFTH_CHECK_MSG(false, "deadlock: all threads blocked");
      }
      // Parked until a section leaves ready work behind (or, when every
      // worker is idle with live work, until the deadlock grace ends).
      stuck_timed_out = !w.parker.park(stuck ? kStuckGraceNs : 0);
      unparked_claim = false;
      continue;
    }
    // Found work during the re-scan: leave the idle list. A waker that
    // claimed this worker before it parked meant its wake for work this
    // worker may not have taken (another domain's, or a ready posted after
    // its section), so pass the wake on.
    if (w.idle.load(std::memory_order_relaxed)) {
      leave_idle(w);
    } else if (unparked_claim) {
      wake_idle();
    }
    unparked_claim = false;
    stuck_timed_out = false;
    run_fiber(w, t);
    release_post(w);
  }
  tl_worker = nullptr;
}

// -- supervisor: timed-wait timers + stall watchdog -------------------------

void RealEngine::timer_ready(Tcb* t) {
  t->timed_out = true;
  obs::edges::wake(opts_.nprocs, nullptr, t, 0);
  DFTH_COUNT(obs::Counter::SyncTimeouts);
  count(nullptr, [](LaneCounters& c) { ++c.sync_timeouts; });
  ready_section(t, nullptr, ::dfth::replay::EvKind::TimeoutReady,
                ::dfth::replay::kActorTimer);
}

void RealEngine::fire_due_sleepers(std::unique_lock<std::mutex>& lk) {
  // Called with lk (sup_mu_) held. The vector mutates while unlocked, so
  // restart the scan after every fire; fired entries are gone, so it ends.
restart:
  const std::uint64_t now = steady_now_ns();
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].deadline_ns > now) continue;
    const RtSleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    firing_ = s.t;
    lk.unlock();
    // Claim protocol: wait-list membership under the guard is the claim.
    // Losing means a waker popped the fiber first; its wake() owns the
    // resume and the timer loses quietly.
    s.guard->lock();
    const bool claimed = s.list->remove(s.t);
    if (claimed) {
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutClaim,
                         ::dfth::replay::kActorTimer, s.t->id, 0);
    }
    s.guard->unlock();
    if (claimed) timer_ready(s.t);
    lk.lock();
    firing_ = nullptr;
    sup_cv_.notify_all();
    goto restart;
  }
}

#if DFTH_REPLAY
void RealEngine::replay_fire_sleepers(std::unique_lock<std::mutex>& lk) {
  auto* rs = replay::active();
  DFTH_CHECK(rs != nullptr && rs->mode() == replay::Mode::Replay);
restart:
  std::uint64_t tid = 0;
  if (!rs->head_is(replay::EvKind::TimeoutClaim, replay::kActorTimer, &tid)) {
    // A truncated (abort-time) log free-runs on wall-clock deadlines once
    // every ordered decision has been consumed.
    if (rs->replay_exhausted()) fire_due_sleepers(lk);
    return;
  }
  // The log's next decision is a timer claim of fiber `tid`. Its sleeper may
  // not be armed yet (the fiber is still switching away) — leave the head
  // alone and retry on the next supervisor poll.
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].t->id != tid) continue;
    const RtSleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    firing_ = s.t;
    lk.unlock();
    s.guard->lock();
    const bool claimed = s.list->remove(s.t);
    // A waker cannot have popped the fiber first: its guard section is gated
    // behind this very record. Losing the claim anyway means the run
    // diverged from the log.
    DFTH_CHECK_MSG(claimed, "replay: logged timeout claim lost its race");
    rs->commit(replay::EvKind::TimeoutClaim, replay::kActorTimer, tid, 0);
    s.guard->unlock();
    timer_ready(s.t);
    lk.lock();
    firing_ = nullptr;
    sup_cv_.notify_all();
    goto restart;
  }
}
#endif  // DFTH_REPLAY

void RealEngine::supervisor_loop() {
  using std::chrono::milliseconds;
  using std::chrono::nanoseconds;
  const milliseconds stall(opts_.watchdog.stall_deadline_ms);
  auto progress = [this] {
    std::uint64_t p = ext_progress_.load(std::memory_order_relaxed);
    for (const Worker& w : workers_) p += w.progress.load(std::memory_order_relaxed);
    return p;
  };
  std::uint64_t last_progress = progress();
  auto last_change = std::chrono::steady_clock::now();

  std::unique_lock<std::mutex> lk(sup_mu_);
  while (!sup_stop_) {
    // Nap until the nearest timer deadline or the next watchdog poll,
    // whichever is sooner; sleep unbounded when neither is armed.
    std::uint64_t nap_ns = kInf;
    const std::uint64_t now_ns = steady_now_ns();
    for (const RtSleeper& s : sleepers_) {
      nap_ns = std::min(nap_ns,
                        s.deadline_ns > now_ns ? s.deadline_ns - now_ns : 0);
    }
    if (stall.count() > 0) {
      const auto poll = std::max(stall / 4, milliseconds(1));
      nap_ns = std::min(
          nap_ns, static_cast<std::uint64_t>(nanoseconds(poll).count()));
    }
#if DFTH_REPLAY
    const bool pinned = [] {
      auto* rs = replay::active();
      return rs != nullptr && rs->mode() == replay::Mode::Replay;
    }();
    if (pinned) {
      // Replayed timer fires are driven by the log head, not by deadlines —
      // no notification marks the head becoming a TimeoutClaim, so poll at a
      // flat 1ms. Deadline-derived naps must not apply here: a past-due
      // sleeper the log is not yet ready to fire yields nap_ns == 0, and a
      // zero nap skips both wait branches below — the loop would then spin
      // without ever releasing sup_mu_, starving fibers that register and
      // deregister sleepers under it (a replay-only livelock).
      nap_ns = std::uint64_t{1'000'000};
    }
#endif
    if (nap_ns == kInf) {
      sup_cv_.wait(lk);
    } else if (nap_ns > 0) {
      sup_cv_.wait_for(lk, nanoseconds(nap_ns));
    }
    if (sup_stop_) break;

#if DFTH_REPLAY
    if (pinned) {
      replay_fire_sleepers(lk);
    } else {
      fire_due_sleepers(lk);
    }
#else
    fire_due_sleepers(lk);
#endif

    if (stall.count() > 0) {
      // Liveness heartbeat (resil/watchdog.h): an intentionally idle serving
      // engine beats instead of dispatching. Both counters only grow, so the
      // sum moves whenever either does and the snapshot logic is unchanged.
      std::uint64_t p = progress();
      if (const auto* hb = opts_.watchdog.heartbeat) {
        p += hb->load(std::memory_order_relaxed);
      }
      const auto now = std::chrono::steady_clock::now();
      if (p != last_progress) {
        last_progress = p;
        last_change = now;
      } else if (now - last_change >= stall) {
        // No dispatch/wake/exit for a full deadline. Only trip while live
        // work remains — a finished run making no progress is just done.
        lk.unlock();
        if (live_.load(std::memory_order_relaxed) > 0 &&
            !done_.load(std::memory_order_acquire)) {
          dump_flight("RealEngine watchdog: no scheduler progress within the "
                      "stall deadline");
          DFTH_CHECK_MSG(false, "stall watchdog tripped");
        }
        lk.lock();
        last_change = now;  // run is draining; don't re-trip every poll
      }
    }
  }
}

void RealEngine::dump_flight(const char* reason) {
  // A wedged worker may hold a lock forever; bound the wait, then dump the
  // possibly-inconsistent snapshot anyway (flagged as such).
  std::vector<SpinFutexLock*> held;
  auto try_hold = [&held](SpinFutexLock& l, int* budget) {
    for (; *budget > 0; --*budget) {
      if (l.try_lock()) {
        held.push_back(&l);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  int budget = 200;
  bool locked = try_hold(mu_, &budget);
  for (int d = 0; d < ndomains_; ++d) {
    locked = try_hold(domains_[static_cast<std::size_t>(d)].lock, &budget) && locked;
  }
  std::vector<Tcb*> tcbs;
  for_each_tcb([&tcbs](Tcb* t) { tcbs.push_back(t); });
  std::sort(tcbs.begin(), tcbs.end(),
            [](const Tcb* a, const Tcb* b) { return a->id < b->id; });
  resil::FlightInfo info;
  info.reason = reason;
  info.engine = "real";
  info.live_threads = live_.load(std::memory_order_relaxed);
  info.sched_state_consistent = locked;
  for (const Worker& w : workers_) info.lanes.push_back({w.id, w.current});
  info.all_tcbs = &tcbs;
  info.sched = sched_.get();
  info.tracer = obs::tracer();
#if DFTH_REPLAY
  if (auto* rs = replay::active()) {
    if (rs->mode() == replay::Mode::Record) {
      // Persist the schedule up to the abort so the hang itself replays.
      rs->flush_partial();
      info.record_log = rs->path();
      info.replay_cmd = "tools/dfth-replay replay " + rs->path();
    } else {
      info.replay_log = rs->path();
      info.replay_position = rs->position_summary();
    }
  }
#endif
  resil::dump_flight_recorder(info, opts_.watchdog);
  for (SpinFutexLock* l : held) l->unlock();
}

RunStats RealEngine::run(const std::function<void()>& main_fn) {
  TrackedHeap::instance().begin_epoch();
  StackPool::instance().begin_epoch();
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);

  Timer timer;

  // Resource-exhaustion degradation: losing workers only loses parallelism.
  // Worker 0 is exempt so the run is always able to make progress. The kept
  // count is fixed *before* any thread starts: ids stay dense in
  // [0, nprocs), which every scheduler hint path assumes. The lanes exist
  // before main is registered, because a bound main's sections drain every
  // lane's posted list.
  int kept_workers = 0;
  for (int i = 0; i < opts_.nprocs; ++i) {
    if (i > 0 && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kWorkerSpawn)) {
      DFTH_FAULT_RECOVERED(resil::FaultSite::kWorkerSpawn);
      continue;
    }
    ++kept_workers;
  }
  workers_ = std::vector<Worker>(static_cast<std::size_t>(kept_workers));
  idle_.reserve(static_cast<std::size_t>(kept_workers));
  for (int i = 0; i < kept_workers; ++i) {
    Worker& w = workers_[static_cast<std::size_t>(i)];
    w.id = i;
    w.domain = sched_->lock_domain(i);
  }

  Tcb* main = make_tcb(
      [&main_fn]() -> void* {
        main_fn();
        return nullptr;
      },
      Attr{}, /*is_dummy=*/false);
  main->is_main = true;
  main->site_file = "<main>";
  main->site_line = 0;
  obs::edges::fork(0, nullptr, main, 0);
  if (!main->stack) {
    // No fiber stack for main even after the pool's heap fallback (or an
    // injected ctx.create fault): run main bound on a dedicated kernel
    // thread — the Solaris bound-thread escape hatch. Children it spawns
    // still go through the scheduler as usual.
    main->attr.bound = true;
    DFTH_REPLAY_GATE(::dfth::replay::kActorHost);
    {
      ColdSection s(*this);
      live_.store(1, std::memory_order_relaxed);
      bound_live_.fetch_add(1, std::memory_order_relaxed);
      ext_counters_.threads_created = 1;
      ext_counters_.max_live_threads = 1;
      std::int64_t live = 1;
      [[maybe_unused]] const std::uint64_t b =
          spawn_record_b(::dfth::replay::kSpawnBound, &live);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::kActorHost, main->id, b);
    }
    start_bound_thread(main);
  } else {
    DFTH_REPLAY_GATE(::dfth::replay::kActorHost);
    Section s(*this, own_domain(nullptr), nullptr);
    sched_->register_thread(nullptr, main);
    main->state.store(ThreadState::Ready, std::memory_order_relaxed);
    sched_->on_ready(main, 0);
    live_.store(1, std::memory_order_relaxed);
    ext_counters_.threads_created = 1;
    ext_counters_.max_live_threads = 1;
    std::int64_t live = 1;
    [[maybe_unused]] const std::uint64_t b = spawn_record_b(0, &live);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::kActorHost, main->id, b);
  }

  for (auto& w : workers_) {
    // Genuine kernel-thread exhaustion: retry with backoff — other processes
    // (or our own exiting bound threads) may return slots — then give up
    // loudly. (Injected worker.spawn faults were already absorbed above by
    // shrinking the worker count before any thread started.)
    for (int attempt = 0;; ++attempt) {
      try {
        w.thread = std::thread([this, &w] { worker_loop(w); });
        break;
      } catch (const std::system_error&) {
        DFTH_CHECK_MSG(attempt < 4, "cannot spawn worker kernel threads");
        std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sup_stop_ = false;
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });

  // The tracer's time series; the thread stops and joins when run returns.
  std::jthread sampler;
  if (obs::Tracer* tr = obs::tracer()) {
    std::uint64_t interval_ns = tr->config().sample_interval_ns;
    if (interval_ns == 0) interval_ns = 1'000'000;  // 1 ms
    sampler = std::jthread([this, tr, interval_ns](std::stop_token stop) {
      while (!stop.stop_requested()) {
        obs::Sample s;
        s.ts_ns = tr->now();
        s.live_threads = live_.load(std::memory_order_relaxed);
        s.ready = static_cast<std::int64_t>(ready_total());
        s.heap_bytes = TrackedHeap::instance().live_bytes();
        s.stack_bytes = StackPool::instance().live_bytes();
        tr->add_sample(s);
        std::this_thread::sleep_for(std::chrono::nanoseconds(interval_ns));
      }
    });
  }

  while (!done_.load(std::memory_order_acquire)) host_parker_.park();
  for (auto& w : workers_) w.thread.join();
  // Worker dispatch-loop contexts are created implicitly by their first
  // save; the ucontext backend heap-allocates an impl for them.
  for (auto& w : workers_) context_destroy(&w.ctx);
  for (auto& bt : bound_threads_) bt.join();
  bound_threads_.clear();
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  supervisor_.join();

  ext_counters_.sched_lock_sections += ext_sections_.load(std::memory_order_relaxed);
  ext_counters_.add_to(&stats_);
  for (const Worker& w : workers_) w.counters.add_to(&stats_);
  stats_.global_lock_sections = global_sections_;
  stats_.elapsed_us = timer.elapsed_us();
  stats_.heap_peak = TrackedHeap::instance().peak_bytes();
  stats_.stack_peak = StackPool::instance().peak_bytes();
  stats_.stacks_fresh = StackPool::instance().fresh_count();
  stats_.stacks_reused = StackPool::instance().reuse_count();
  stats_.stack_high_water = StackPool::instance().high_water_bytes();
  if (auto* ws = dynamic_cast<WorkStealScheduler*>(sched_->underlying())) {
    stats_.steals = ws->steal_count();
  }
#if DFTH_REPLAY
  if (auto* prs = dynamic_cast<replay::ReplayScheduler*>(sched_.get())) {
    stats_.steals = prs->steal_count();
  }
#endif

  return stats_;
}

}  // namespace dfth
