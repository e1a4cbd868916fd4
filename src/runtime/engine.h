// Execution engines. The public API in runtime/api.h dispatches every thread
// operation to the active engine:
//   * SimEngine — deterministic discrete-event model of a p-processor SMP
//     (runtime/sim_engine.h); regenerates the paper's measurements.
//   * RealEngine — kernel-thread workers multiplexing fibers
//     (runtime/real_engine.h); true concurrency for stress tests and for
//     the Figure 3 operation-cost microbenchmarks.
//
// Engine is the interface, the transition core and the thread lifecycle:
// the policy half of each transition both engines make is one protected
// member here (hot ones inline, cold ones in engine.cpp), called where the
// transition happens. It owns every Tcb from birth (main's too) to its exit
// handoff, stack retirement and recycling, and each timed wait's claim and
// epilogue. A Tcb is recycled once its thread has exited and been joined or
// detached, onto a per-lane Tcb cache beside the stack pool's stacks, so
// thread memory is O(live threads); every Tcb ever allocated stays in one
// registry until the engine is destroyed. Each engine keeps only what
// differs: its clock, its charge (virtual cost in Sim), its lock (a domain
// section in Real, the virtual lock in Sim) and its event loop.
//
// Threading contract: engine methods are called from fiber context (user
// code) except run(), which is called from the host thread that owns the
// runtime for the duration of the run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "obs/edges.h"
#include "replay/hooks.h"
#include "runtime/api.h"
#include "runtime/run_stats.h"
#include "threads/tcb.h"
#include "util/check.h"
#include "util/spinlock.h"

namespace dfth {

namespace resil {
struct FlightInfo;
}

/// Engine::block's timeout for a wait without a timer.
inline constexpr std::uint64_t kNoTimeout = ~std::uint64_t{0};

/// Free Tcbs move between a lane's cache and the shared spill list in
/// batches of this many; a lane keeps at most two batches.
inline constexpr int kTcbBatch = 16;

class Engine {
 public:
  /// Frees every Tcb the run allocated, free ones included, with its stack.
  virtual ~Engine();

  virtual EngineKind kind() const = 0;

  /// Executes `main_fn` as the main thread; returns when every thread
  /// (including detached ones) has exited.
  virtual RunStats run(const std::function<void()>& main_fn) = 0;

  // -- thread operations (fiber context) -----------------------------------
  virtual Tcb* current() = 0;
  /// `site_file`/`site_line` name the user-visible spawn call site (static
  /// storage duration) for the work/span profiler's attribution; the engine
  /// stores them on the child's Tcb before it can first run.
  virtual Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                     const char* site_file = nullptr, int site_line = 0) = 0;
  /// Waits for t's exit and returns its result; the join is the handle's
  /// party, so t may be recycled once it returns.
  virtual void* join(Tcb* t) = 0;
  /// The handle's party without a join: t is recycled once it has exited.
  void detach(Tcb* t) {
    DFTH_CHECK_MSG(!t->detached && !t->joined, "detach of a joined or detached thread");
    t->detached = true;
    release(t, trace_lane());
  }
  virtual void yield() = 0;

  // -- synchronization support ----------------------------------------------
  /// Blocks the current thread: the one blocking wait behind join and,
  /// through wait(), every sync primitive. The caller has already enqueued
  /// itself on `list` and set its state to Blocked while holding `guard`;
  /// the engine releases `guard` only after the fiber's context is fully
  /// saved (so a concurrent wake() can never resume a half-saved context).
  /// A timed wait (`timeout_ns` other than kNoTimeout: virtual ns in Sim,
  /// steady-clock ns in Real) arms a timer before the guard is released. If
  /// it fires before a waker pops the thread from `list`, the timer removes
  /// it itself (the wait-list membership under `guard` is the claim token —
  /// exactly one of timer and waker wins) and resumes it. Returns false when
  /// the timer won, true when a waker did. Only a timed wait reads `list`,
  /// so a join may pass null. An untimed wait reads no clock.
  virtual bool block(SpinLock* guard, WaitList* list, std::uint64_t timeout_ns) = 0;

  /// Enqueues the calling thread `cur` on `list` (at its head with
  /// `front`) as Blocked, then blocks.
  bool wait(Tcb* cur, SpinLock* guard, WaitList* list, std::uint64_t timeout_ns,
            bool front = false) {
    if (front) {
      list->push_front(cur);
    } else {
      list->push(cur);
    }
    cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
    return block(guard, list, timeout_ns);
  }

  /// Makes a previously Blocked thread runnable again.
  virtual void wake(Tcb* t) = 0;

  /// Charges the virtual cost of one uncontended sync operation (no-op in
  /// the real engine, where the cost is real).
  virtual void charge_sync_op() = 0;

  /// Engine-clock nanoseconds: the timebase for timed waits and for
  /// CancelToken::deadline_ns. Virtual ns in Sim, steady-clock ns in Real.
  virtual std::uint64_t now_ns() const = 0;

  /// Event-trace lanes: one per processor, plus in Real one shared lane for
  /// bound threads and external callers. Events carry now_ns() since run().
  virtual int trace_lanes() const = 0;

  // -- allocation accounting (called by df_malloc / df_free) -----------------
  virtual void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) = 0;
  virtual void on_free(std::size_t bytes) = 0;
  /// True when the active scheduler bounds memory with per-scheduling quotas
  /// (AsyncDF); df_malloc then forks dummy threads for allocations > quota.
  bool uses_alloc_quota() const { return sched_->needs_quota(); }
  /// The *effective* quota K: opts.mem_quota, halved by each OOM recovery.
  std::size_t quota_bytes() const {
    return eff_quota_.load(std::memory_order_relaxed);
  }

  /// Heap exhaustion recovery (df_malloc's retry loop). `attempt` counts
  /// failures for this one allocation, starting at 0. Returns true if the
  /// engine recovered enough to justify a retry — AsyncDF-style: treat OOM
  /// like quota exhaustion (preempt the fiber leftmost-ready, shrink the
  /// effective quota K so everyone allocates less per scheduling, back off)
  /// — or false to give up, surfacing DfStatus::kNoMem to the caller.
  virtual bool on_alloc_failed(std::size_t bytes, int attempt) = 0;

  // -- virtual-time annotations (no-ops in the real engine) -------------------
  virtual void add_work(std::uint64_t ops) = 0;
  virtual void touch(const std::uint32_t* block_ids, std::size_t count) = 0;

 protected:
  /// Run counters one lane owns, summed into the RunStats at run end.
  struct LaneCounters {
    std::uint64_t threads_created = 0;
    std::uint64_t dummy_threads = 0;
    std::int64_t max_live_threads = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t quota_preemptions = 0;
    std::uint64_t oom_preemptions = 0;
    std::uint64_t inline_runs = 0;
    std::uint64_t sync_timeouts = 0;
    std::uint64_t deadline_expirations = 0;
    std::uint64_t sched_lock_sections = 0;

    void add_to(RunStats* s) const;
  };

  /// A timed wait's timer entry: fires at deadline_ns (engine clock) unless
  /// a waker claimed t first, popping it from `list` under `guard`.
  struct Sleeper {
    std::uint64_t deadline_ns = 0;
    Tcb* t = nullptr;
    SpinLock* guard = nullptr;
    WaitList* list = nullptr;
  };

  /// Builds the scheduler: a replay session's ReplayScheduler (pinned to
  /// the log in Real, mapped onto virtual time in Sim), else opts.sched.
  /// There are `lanes` trace lanes, each with a Tcb registry list. Lanes
  /// below opts.nprocs are each used by one kernel thread at a time and
  /// have a Tcb cache; lane nprocs, if any (Real's external lane), is
  /// shared by every other caller. Fibers enter at `entry`.
  Engine(const RuntimeOptions& opts, EngineKind kind, int lanes,
         void (*entry)(void*));

  /// The calling kernel thread's trace lane, which is also its Tcb cache's.
  virtual int trace_lane() const = 0;

  /// Tcb creation on `lane`: a free Tcb from its cache, else a new one on
  /// its registry list; attr defaults, the spawn site, the parent's cancel
  /// token unless attr has its own, then a fiber (a stack of `stack_bytes`)
  /// unless that is 0. A null stack on return (no memory, or a failed
  /// `probe` of ctx.create) means an inline run.
  Tcb* new_tcb(std::uint64_t id, std::function<void*()> fn, const Attr& attr,
               bool is_dummy, Tcb* parent, const char* site_file, int site_line,
               std::size_t stack_bytes, int lane, bool probe = true);
  /// The birth of main: a Tcb running main_fn, its site and its fork edge.
  Tcb* new_main(const std::function<void()>& main_fn, std::uint64_t id,
                std::size_t stack_bytes, int lane, bool probe);
  /// t becomes Ready with the policy on `proc`, eligible from `at` (virtual
  /// time in Sim, 0 in Real), under the lock of its ready domain.
  void ready(Tcb* t, int proc, std::uint64_t at) {
    t->state.store(ThreadState::Ready, std::memory_order_relaxed);
    t->ready_at_ns = at;
    sched_->on_ready(t, proc);
    obs::edges::ready(proc);
  }
  /// Counts t's birth on c, which saw `live` live threads (Sim: 0).
  static void count_birth(LaneCounters& c, const Tcb* t, std::int64_t live) {
    ++c.threads_created;
    if (t->is_dummy) ++c.dummy_threads;
    c.max_live_threads = std::max(c.max_live_threads, live);
  }
  /// A thread's body: runs it, keeps its result, drops its closure.
  static void run_body(Tcb* t) {
    t->result = t->entry();
    t->entry = nullptr;
  }

  // The inline run of a child with no fiber, on its parent's stack: the
  // child precedes the parent's continuation in the serial depth-first
  // order, so this is the one-processor schedule. The child is never
  // registered. decide_inline counts and audits it, grants it to `lane`
  // with no burden, logs a kSpawnInline SpawnReg with the grant's deadline
  // bit (Real: in a section) and swaps the child's cancel token onto the
  // parent; the caller runs its body as the parent, so cancel_requested()
  // and the child's own spawns see the child's scope; end_inline swaps the
  // tokens back and gives the child's exit edge and Done (no joiner can
  // exist yet).
  void decide_inline(Tcb* parent, Tcb* child, LaneCounters& c, int lane);
  void end_inline(Tcb* child, int lane);

  /// The dispatch grant: t runs on `lane` with a fresh quota of K bytes and
  /// `cost` (a DispatchCost or callable) as its burden. Returns the deadline
  /// bit of its record: the Dispatch's kDispatchDeadline, or for an inline
  /// child (`inline_run`) the SpawnReg's kSpawnDeadline.
  template <class C>
  std::uint64_t grant(Tcb* t, LaneCounters& c, int lane, const C& cost,
                      bool inline_run = false) {
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    t->quota = static_cast<std::int64_t>(quota_bytes());
    ++t->dispatches;
    ++c.dispatches;
    obs::edges::dispatch(lane, t, cost);
    // No token, no deadline: a faithful replay logged none either.
    return t->cancel != nullptr ? expire(t, c, lane, inline_run) : 0;
  }

  /// The quota debit of a df_malloc under a quota policy (§4 item 2): true
  /// when it exhausts t's quota — "when the counter reaches zero, the thread
  /// is preempted" — and the caller preempts t.
  bool debit(Tcb* t, std::size_t bytes, LaneCounters& c, int lane) {
    t->quota -= static_cast<std::int64_t>(bytes);
    if (t->quota > 0) return false;
    ++c.quota_preemptions;
    obs::edges::quota_exhaust(lane, t, bytes);
    return true;
  }

  /// OOM recovery handles heap exhaustion like quota exhaustion: false once
  /// `attempt` reaches the bound (the caller surfaces kNoMem), else audits
  /// t's preempt. The caller counts it, shrinks K, backs off, preempts t.
  bool oom_preempt(Tcb* t, int attempt);
  /// Halves K (4 KiB floor): every later scheduling admits fewer live
  /// allocations. Returns the new K.
  std::size_t shrink_quota();

  /// The join's checks and edge (as obs::edges::join) once t's exit-or-not
  /// is settled. True when t has not finished: `cur` is then t's Blocked
  /// joiner, and the caller blocks it until t's exit wakes it.
  template <class L, class O>
  bool join_blocks(Tcb* cur, Tcb* t, const L& lane, const O& offset_ns) {
    DFTH_CHECK_MSG(!t->detached, "join of detached thread");
    DFTH_CHECK_MSG(!t->joined, "thread joined twice");
    obs::edges::join(lane, cur, t, offset_ns);
    if (t->finished) return false;
    DFTH_CHECK_MSG(cur, "join from outside the runtime");
    DFTH_CHECK_MSG(t->joiner == nullptr, "two concurrent joiners");
    t->joiner = cur;
    cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
    return true;
  }

  /// The exit handoff: under t's join_lock, t finishes and its blocked
  /// joiner, if any, is taken and returned (not yet woken). With `log`
  /// (Real's fiber and bound exits) the race is gated and committed as
  /// ExitJoin inside the lock.
  Tcb* hand_off(Tcb* t, bool log);
  /// Finalizes exited t's context, then returns its stack to the pool.
  static void retire_stack(Tcb* t);
  /// Drops one of t's two parties (Tcb::refs): its exit once retired, or
  /// its join or detach. The last one recycles t onto `lane`'s cache.
  void release(Tcb* t, int lane) {
    if (t->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) recycle(t, lane);
  }

  /// The timer's claim on s: s.t's membership in s.list under s.guard is
  /// the token, and the timer loses quietly (false) to a waker that popped
  /// it first. With `log` (Real) a won claim commits its TimeoutClaim under
  /// the guard. A won claim marks and counts the timeout, with its edge.
  template <class L>
  bool claim(const Sleeper& s, LaneCounters& c, const L& lane, bool log) {
    s.guard->lock();
    const bool claimed = s.list->remove(s.t);
    if (log && claimed) {
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutClaim,
                         ::dfth::replay::kActorTimer, s.t->id, 0);
    }
    s.guard->unlock();
    if (!claimed) return false;
    s.t->timed_out = true;
    ++c.sync_timeouts;
    obs::edges::wake(lane, nullptr, s.t, 0);
    return true;
  }
  /// A timed wait's epilogue, once t resumed: its dead timer entry leaves
  /// sleepers_ (Real: under their lock), then the claim's mark is read and
  /// cleared. True when a waker, not the timer, resumed t.
  bool end_wait(Tcb* t);

  /// RunStats::steals: the work-stealing policy's, or a pinned replay's.
  std::uint64_t steal_count() const;
  /// RunStats::tcbs_allocated: distinct Tcbs this run allocated.
  std::uint64_t tcbs_allocated() const {
    return tcbs_allocated_.load(std::memory_order_relaxed);
  }
  /// Adds the engine, the scheduler, the tracer, the replay session and
  /// every thread not yet recycled (by id) to `info`, writes the
  /// flight-recorder dump, then aborts with `what`.
  [[noreturn]] void dump_and_abort(resil::FlightInfo& info, const char* what);

  RuntimeOptions opts_;
  std::unique_ptr<Scheduler> sched_;
  /// Effective K (atomic: Real grants it without the lock that shrinks it).
  std::atomic<std::size_t> eff_quota_{0};
  RunStats stats_;  ///< configuration echo; counters merged at run end
  std::vector<Sleeper> sleepers_;  ///< armed timers (Real: under sup_mu_)

 private:
  /// One lane's registry list (through Tcb::created_next), on its own line.
  struct alignas(64) Registry {
    std::atomic<Tcb*> head{nullptr};
  };
  /// One lane's free Tcbs (through Tcb::sched_next), on its own line.
  struct alignas(64) TcbCache {
    Tcb* head = nullptr;
    int count = 0;
  };

  /// A free Tcb for `lane`: its cache's, refilled by a batch from the spill
  /// list when empty; nullptr when both are empty.
  Tcb* take_tcb(int lane);
  /// Resets t, keeping only its registry link (so it has id 0), and puts it
  /// on `lane`'s cache; a cache past two batches spills one.
  void recycle(Tcb* t, int lane);

  /// The grant's deadline check: fires t's cancel token once now_ns() has
  /// passed its deadline. Cooperative — t still runs, polls
  /// cancel_requested() and drains. A pinned replay reads the logged bit,
  /// the one record of the expire-or-not race, instead of the clock.
  std::uint64_t expire(Tcb* t, LaneCounters& c, int lane, bool inline_run);

  int lanes_;
  std::unique_ptr<Registry[]> registry_;
  std::unique_ptr<TcbCache[]> caches_;  ///< one per lane below opts_.nprocs
  /// Free Tcbs beyond the lanes' caches; the shared lane's only cache.
  SpinLock spill_mu_;
  std::vector<Tcb*> spill_;  ///< guarded by spill_mu_
  std::atomic<std::uint64_t> tcbs_allocated_{0};
  void (*entry_)(void*);
};

/// The active engine, or nullptr outside dfth::run(). Deliberately a
/// function (not a global) and never inlined: fibers migrate between kernel
/// threads in the real engine, and a compiler caching a thread-local read
/// across a context switch would read another worker's state.
Engine* engine();

namespace detail {
void set_engine(Engine* e);
}

}  // namespace dfth
