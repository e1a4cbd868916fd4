#include "runtime/real_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/counters.h"
#include "obs/edges.h"
#include "replay/log.h"
#include "resil/faults.h"
#include "resil/watchdog.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/timer.h"

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
  if (auto* rs = ::dfth::replay::active()) {
    return rs->alloc_tid(next, ::dfth::replay::self_actor());
  }
  return next++;
}

// A SpawnReg record's b: the placement flags plus the live-thread count the
// spawn observed. live_ is one atomic across every lock domain, so a pinned
// replay cannot reproduce its increment order; it reads the recorded count
// back into *live instead.
std::uint64_t spawn_record_b(std::uint64_t flags, std::int64_t* live) {
  const int shift = ::dfth::replay::kSpawnLiveShift;
  if (auto* rs = replay::active()) {
    *live = static_cast<std::int64_t>(
        rs->spawn_flags_hint(static_cast<std::uint64_t>(*live) << shift) >> shift);
  }
  return flags | (static_cast<std::uint64_t>(*live) << shift);
}

}  // namespace

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

RealEngine::RealEngine(const RuntimeOptions& opts)
    // One registry list per worker, and the external lane's.
    : Engine(opts, EngineKind::Real, opts.nprocs + 1, &fiber_entry) {
  ndomains_ = sched_->domains();
  // A recording or a pinned replay must order every ready in a section.
  posts_ = ndomains_ == 1 && !replay::pinned();
  domains_ = std::make_unique<Domain[]>(static_cast<std::size_t>(ndomains_));
}

std::size_t RealEngine::fiber_stack(const Attr& attr) const {
  // Real stacks honor the requested size but keep a floor under the
  // benchmarks' serial base cases; a bound thread gets none.
  if (attr.bound) return 0;
  return std::max(attr.stack_size ? attr.stack_size : opts_.default_stack_size,
                  kRealStackFloor);
}

void RealEngine::fiber_entry(void* arg) {
  Tcb* t = static_cast<Tcb*>(arg);
  run_body(t);
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
  Tcb* joiner = self->hand_off(t, /*log=*/true);
  if (joiner != nullptr) {
    self->note_wake(joiner);
    if (ready_bound(joiner)) joiner = nullptr;
  }
  t->state.store(ThreadState::Done, std::memory_order_release);
  // The scheduler side of the exit (unregister, live_, the joiner's wake)
  // joins the worker's next section.
  w->post = Post::ExitCleanup;
  w->post_fiber = t;
  w->post_next = joiner;
  context_switch_final(&t->ctx, &w->ctx);
}

bool RealEngine::ready_bound(Tcb* t) {
  if (!t->attr.bound) return false;
  t->state.store(ThreadState::Ready, std::memory_order_release);
  return true;
}

Tcb* RealEngine::spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                       const char* site_file, int site_line) {
  // The profiler's fork-cost burden; no clock read without one.
  const std::uint64_t fork_t0 = obs::profiler() ? steady_now_ns() : 0;
  Worker* w = this_worker();
  const int lane = w ? w->id : opts_.nprocs;
  Tcb* parent = current();
  Tcb* child = new_tcb(take_tid(next_tid_), std::move(fn), attr, is_dummy, parent,
                       site_file, site_line, fiber_stack(attr), lane);
  // Fork edge, taken before the child is published to the scheduler —
  // another worker may dispatch it (and charge work to it) the moment it
  // is ready. The offset is the parent's uncharged partial
  // slice so the child inherits the span as of *now*, not slice start.
  obs::edges::fork(lane, parent, child, [&] {
    return (w && parent && !parent->attr.bound)
               ? steady_now_ns() - w->slice_start_ns
               : 0;
  });

  if (child->attr.bound) {
    start_bound(child, w);
    return child;
  }
  if (!child->stack) {
    // The inline run, decided in a section of the worker's own domain; any
    // other caller decides (and counts) it under mu_.
    DFTH_REPLAY_GATE_SELF();
    if (w) {
      Section s(*this, w->domain, w);
      decide_inline(parent, child, w->counters, lane);
    } else {
      ColdSection s(*this);
      decide_inline(parent, child, ext_counters_, lane);
    }
    run_body(child);
    // The body may have switched workers: look the lane up anew.
    end_inline(child, trace_lane());
    return child;
  }
  std::int64_t live;
  const bool preempt = enqueue(child, parent, w, &live);
  count(w, [&](LaneCounters& c) { count_birth(c, child, live); });
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

bool RealEngine::enqueue(Tcb* child, Tcb* parent, Worker* w, std::int64_t* live) {
  obs::edges::stack(w ? w->id : opts_.nprocs, child, child->stack.size,
                    child->stack.fresh);
  // Counted live before it is published: its exit may follow at once.
  *live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
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
    return preempt;
  }
  {
    Section s(*this, own_domain(w), w);
    sched_->register_thread(parent, child);
    // b is the *effective* decision (fork dive or queued), which is what
    // replay must pin.
    [[maybe_unused]] const std::uint64_t b =
        spawn_record_b(preempt ? ::dfth::replay::kSpawnPreempt : 0, live);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::self_actor(), child->id, b);
    if (!preempt) {
      DFTH_DCHECK(sched_->ready_domain(child, w ? w->id : 0) == own_domain(w));
      make_ready_locked(child, w ? w->id : 0, w);
    }
  }
  if (!preempt) wake_idle();
  return preempt;
}

void RealEngine::start_bound(Tcb* t, Worker* w) {
  DFTH_REPLAY_GATE_SELF();
  ColdSection s(*this);
  std::int64_t live = live_.fetch_add(1, std::memory_order_relaxed) + 1;
  bound_live_.fetch_add(1, std::memory_order_relaxed);
  [[maybe_unused]] const std::uint64_t b =
      spawn_record_b(::dfth::replay::kSpawnBound, &live);
  count_birth(w ? w->counters : ext_counters_, t, live);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                     ::dfth::replay::self_actor(), t->id, b);
  bound_threads_.emplace_back([this, t] {
    tl_bound = t;
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    const std::uint64_t t0 = obs::profiler() ? steady_now_ns() : 0;
    run_body(t);
    // A bound thread is one uninterrupted slice on its own kernel thread.
    obs::edges::exit(opts_.nprocs, t, [t0] { return steady_now_ns() - t0; });
    t->state.store(ThreadState::Done, std::memory_order_release);
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
    if (Tcb* joiner = hand_off(t, /*log=*/true)) wake(joiner);
    tl_bound = nullptr;
  });
}

void* RealEngine::join(Tcb* t) {
  Tcb* cur = current();
  DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  // The join-vs-exit race on join_lock decides blocking; commit the outcome
  // inside the section so replay reproduces (and verifies) it.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Join, ::dfth::replay::self_actor(),
                     t->id, t->finished ? 0 : 1);
  if (t->finished) t->join_lock.unlock();
  // A finished child gives its edge here, else publish_exit's wake does.
  if (join_blocks(cur, t, [this] { return trace_lane(); }, [this, cur] {
        Worker* w = this_worker();
        return (w && cur) ? steady_now_ns() - w->slice_start_ns : 0;
      })) {
    // Releases join_lock after the switch.
    block(&t->join_lock, nullptr, kNoTimeout);
    DFTH_CHECK(t->finished);
  }
  t->joined = true;
  return t->result;
}

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

bool RealEngine::block(SpinLock* guard, WaitList* list, std::uint64_t timeout_ns) {
  Tcb* cur = current();
  DFTH_CHECK(cur && cur->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard->is_locked(), "block without holding the wait-list guard");
  const bool timed = timeout_ns != kNoTimeout;
  Worker* w = this_worker();
  obs::edges::block(w ? w->id : opts_.nprocs, cur);
  if (timed) {
    DFTH_CHECK(list != nullptr);
    // Arm the supervisor's timer *before* the guard is released. The timer
    // claims a waiter off its list only under the guard, so a premature
    // fire waits until the waiter has blocked (a fiber: until its context
    // is saved, Post::ReleaseGuard).
    {
      std::lock_guard<std::mutex> lk(sup_mu_);
      sleepers_.push_back({steady_now_ns() + timeout_ns, cur, guard, list});
    }
    sup_cv_.notify_all();
  }
  if (w && !cur->attr.bound) {
    w->post = Post::ReleaseGuard;
    w->post_guard = guard;
    // An untimed wait tail-calls the switch: the resumed fiber returns
    // straight to the sync primitive, with no frame of ours to unwind.
    if (!timed) return context_switch(&cur->ctx, &w->ctx);
    context_switch(&cur->ctx, &w->ctx);
  } else {
    // Bound threads have no fiber to switch away from: release the guard
    // and wait for a waker or the timer to flip the state.
    guard->unlock();
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      std::this_thread::yield();
    }
  }
  if (!timed) return true;
  std::unique_lock<std::mutex> lk(sup_mu_);
  // An in-flight fire for cur already left sleepers_ but may not have taken
  // the guard yet; wait it out or it could claim cur's *next* wait.
  sup_cv_.wait(lk, [this, cur] { return firing_ != cur; });
  return end_wait(cur);
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
  if (ready_bound(t)) return;
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

void RealEngine::ready_section(Tcb* t, Worker* w,
                               [[maybe_unused]] replay::EvKind kind,
                               [[maybe_unused]] std::uint64_t actor) {
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

void RealEngine::on_alloc(std::size_t bytes, std::int64_t /*fresh_bytes*/) {
  obs::edges::heap([this] { return trace_lane(); }, [this] { return current(); },
                   bytes, /*freed=*/false);
  if (!uses_alloc_quota()) return;
  // Bound threads and callers outside the runtime have no quota.
  Worker* w = this_worker();
  if (w && w->current && debit(w->current, bytes, w->counters, w->id)) {
    requeue(w, w->current, obs::kPreemptQuota);
  }
}

void RealEngine::on_free(std::size_t bytes) {
  obs::edges::heap([this] { return trace_lane(); }, [this] { return current(); },
                   bytes, /*freed=*/true);
}

bool RealEngine::on_alloc_failed(std::size_t /*bytes*/, int attempt) {
  Tcb* cur = current();
  if (!oom_preempt(cur, attempt)) return false;
  // The halving is an ordered decision: how many landed before a dispatch
  // sets the quota it grants, hence where the fiber quota-preempts. So the
  // shrink takes the caller's domain lock (for a one-domain policy, the lock
  // every grant holds) and is logged; a clustered policy's other clusters
  // grant under their own locks, unordered with it.
  Worker* w = this_worker();
  count(w, [](LaneCounters& c) { ++c.oom_preemptions; });
  DFTH_REPLAY_GATE_SELF();
  {
    Section s(*this, own_domain(w), w);
    [[maybe_unused]] const std::size_t shrunk = shrink_quota();
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
  // Each action sets the fields it reads.
  w.post = Post::None;
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
    retire_stack(w.post_fiber);
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
  ready(t, proc, 0);
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
  bump_progress(&w);
  // Burden: the pick's scheduler time and, but for a dive, the idle gap.
  const std::uint64_t deadline = grant(t, w.counters, w.id, [&w, flags] {
    const std::uint64_t now = steady_now_ns();
    const bool dive = (flags & ::dfth::replay::kDispatchForkDive) != 0;
    const std::uint64_t gap =
        (!dive && w.idle_since_ns) ? now - w.idle_since_ns : 0;
    if (!dive) DFTH_HIST(obs::Hist::DispatchGapNs, gap);
    return obs::edges::DispatchCost{now - w.pick_start_ns, gap};
  });
  log.add(::dfth::replay::EvKind::Dispatch, ::dfth::replay::lane_actor(w.id),
          t->id, flags | deadline);
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

bool RealEngine::all_stuck() {
  if (idle_count_.load(std::memory_order_relaxed) != static_cast<int>(workers_.size()) ||
      live_.load(std::memory_order_relaxed) == 0 ||
      bound_live_.load(std::memory_order_relaxed) != 0 ||
      done_.load(std::memory_order_relaxed)) {
    return false;
  }
  std::lock_guard<std::mutex> lk(sup_mu_);
  return sleepers_.empty();
}

std::size_t RealEngine::ready_total() {
  std::size_t n = 0;
  for (int d = 0; d < ndomains_; ++d) {
    std::lock_guard<SpinFutexLock> g(domains_[static_cast<std::size_t>(d)].lock);
    n += sched_->ready_in(d);
  }
  return n;
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
  [[maybe_unused]] const std::uint64_t lane = ::dfth::replay::lane_actor(w.id);
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
      // While a same-engine replay still pins dispatches to the log, idle
      // lanes wait in the session's gate for their next record instead of
      // parking: the gate, not a scheduler notification, admits them.
      if (replay::pinned_active()) continue;
      if (!w.idle.load(std::memory_order_relaxed)) {
        // Register, then scan every domain once more before parking.
        go_idle(w);
        unparked_claim = true;
        continue;
      }
      const bool stuck = all_stuck();
      if (stuck && stuck_timed_out) {
        // Nothing readied anyone during the grace period.
        dump_flight("RealEngine: deadlock — all workers idle, no ready work",
                    "deadlock: all threads blocked");
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

void RealEngine::fire_sleepers(std::unique_lock<std::mutex>& lk) {
  // Called with lk (sup_mu_) held. The vector mutates while unlocked, so
  // restart the scan after every fire; fired entries are gone, so it ends.
restart:
  // A pinned replay fires the sleeper the log's next TimeoutClaim names,
  // never one this run's wall clock picks; its sleeper may not be armed
  // yet (the waiter is still blocking), so the next poll retries.
  const bool pinned = replay::pinned_active();
  std::uint64_t tid = 0;
  if (pinned && !replay::next_timer_claim(&tid)) return;
  const std::uint64_t now = steady_now_ns();
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (pinned ? sleepers_[i].t->id != tid : sleepers_[i].deadline_ns > now) {
      continue;
    }
    const Sleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    firing_ = s.t;
    lk.unlock();
    // In a pinned replay the waker's section is gated behind this very
    // record, so the claim cannot lose.
    const bool claimed = claim(s, timer_counters_, opts_.nprocs, /*log=*/true);
    DFTH_CHECK_MSG(claimed || !pinned, "replay: logged timeout claim lost its race");
    if (claimed && !ready_bound(s.t)) {
      ready_section(s.t, nullptr, ::dfth::replay::EvKind::TimeoutReady,
                    ::dfth::replay::kActorTimer);
    }
    lk.lock();
    firing_ = nullptr;
    sup_cv_.notify_all();
    goto restart;
  }
}

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
    for (const Sleeper& s : sleepers_) {
      nap_ns = std::min(nap_ns,
                        s.deadline_ns > now_ns ? s.deadline_ns - now_ns : 0);
    }
    if (stall.count() > 0) {
      const auto poll = std::max(stall / 4, milliseconds(1));
      nap_ns = std::min(
          nap_ns, static_cast<std::uint64_t>(nanoseconds(poll).count()));
    }
    if (replay::pinned_active()) {
      // The log head, not a deadline, fires a replayed timer, and nothing
      // signals the head becoming a TimeoutClaim: poll at a flat 1 ms. A
      // past-due sleeper's zero nap would spin holding sup_mu_ instead.
      nap_ns = std::uint64_t{1'000'000};
    }
    if (nap_ns == kInf) {
      sup_cv_.wait(lk);
    } else if (nap_ns > 0) {
      sup_cv_.wait_for(lk, nanoseconds(nap_ns));
    }
    if (sup_stop_) break;
    fire_sleepers(lk);

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
                      "stall deadline",
                      "stall watchdog tripped");
        }
        lk.lock();
        last_change = now;  // run is draining; don't re-trip every poll
      }
    }
  }
}

void RealEngine::dump_flight(const char* reason, const char* what) {
  // A wedged worker may hold a lock forever; bound the wait, then dump the
  // possibly-inconsistent snapshot anyway (flagged as such). The locks
  // taken stay held through the abort.
  auto try_hold = [](SpinFutexLock& l, int* budget) {
    for (; *budget > 0; --*budget) {
      if (l.try_lock()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  int budget = 200;
  bool locked = try_hold(mu_, &budget);
  for (int d = 0; d < ndomains_; ++d) {
    locked = try_hold(domains_[static_cast<std::size_t>(d)].lock, &budget) && locked;
  }
  resil::FlightInfo info;
  info.reason = reason;
  info.live_threads = live_.load(std::memory_order_relaxed);
  info.sched_state_consistent = locked;
  for (const Worker& w : workers_) info.lanes.push_back({w.id, w.current});
  dump_and_abort(info, what);
}

RunStats RealEngine::run(const std::function<void()>& main_fn) {
  TrackedHeap::instance().begin_epoch();
  StackPool::instance().begin_epoch();

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

  Tcb* main = new_main(main_fn, take_tid(next_tid_), fiber_stack(Attr{}),
                       opts_.nprocs, /*probe=*/true);
  // The host registers main as spawn does its children. With no fiber
  // stack (even after the pool's heap fallback, or an injected ctx.create
  // fault) main runs bound on a dedicated kernel thread — the Solaris
  // bound-thread escape hatch. Children it spawns still go through the
  // scheduler as usual.
  if (!main->stack) {
    main->attr.bound = true;
    start_bound(main, nullptr);
  } else {
    std::int64_t live;
    enqueue(main, nullptr, nullptr, &live);
    // No other thread runs yet: the host's lane needs no mu_.
    count_birth(ext_counters_, main, live);
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
  timer_counters_.add_to(&stats_);
  for (const Worker& w : workers_) w.counters.add_to(&stats_);
  stats_.global_lock_sections = global_sections_;
  stats_.elapsed_us = timer.elapsed_us();
  stats_.heap_peak = TrackedHeap::instance().peak_bytes();
  stats_.stack_peak = StackPool::instance().peak_bytes();
  stats_.stacks_fresh = StackPool::instance().fresh_count();
  stats_.stacks_reused = StackPool::instance().reuse_count();
  stats_.stack_high_water = StackPool::instance().high_water_bytes();
  stats_.steals = steal_count();

  return stats_;
}

}  // namespace dfth
