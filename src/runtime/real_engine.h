// RealEngine: user-level threads multiplexed over kernel-thread workers —
// the two-level Solaris model (unbound Pthreads over LWPs) built for real.
//
// nprocs kernel threads ("LWPs") each run a dispatch loop; unbound fibers
// are handed out by the pluggable Scheduler under one lock per lock domain
// (core/scheduler.h). A single-list policy is one domain, the same
// serialized-scheduler structure as the paper's library (§6); work stealing
// has one per lane and the clustered scheduler one per cluster. Bound
// threads (Attr::bound) get a dedicated kernel thread and bypass the
// scheduler entirely, exactly like bound Solaris threads.
//
// This engine provides true concurrency for the synchronization stress
// tests and the wall-clock numbers of bench/perf (speedup over serial code
// at p = the host's core count). SimEngine remains the reference for the
// paper's shapes, which do not depend on the host.
//
// Blocking protocol (the classic save-before-publish problem): a fiber that
// blocks or is preempted never publishes itself as resumable directly.
// It records a post-switch action and switches to the worker's context; the
// worker — running strictly after the fiber's state is saved — performs the
// action (release a spinlock, requeue the fiber, retire an exited fiber).
// A fiber can therefore never be resumed by another worker while its
// context is half-saved.
//
// Lock protocol (DESIGN.md §2): a domain's lock guards only that domain's
// scheduler state. Each scheduling transition is one section of the lane's
// own domain. A spawn registers the child. A worker folds its post-switch
// action (requeue, a fork dive's parent requeue, or an exited fiber's
// retirement with its joiner's wake) into the section of its next dispatch:
// the fork dive's child, or its next pick. A lane whose own domain is dry
// steals: one section of the victim's domain per victim tried. No code
// holds two domain locks at once.
//
// Posted readies: with a one-domain policy and no replay session, making a
// thread ready takes no section. A spawn, a fork dive (once the parent is
// saved) and a wake from a fiber push the Tcb onto the lane's own posted
// list with one release CAS, and every section of the domain first applies
// all lanes' lists, each in post order. A fork dive then dispatches its
// child without a section, so a spawned AsyncDF thread costs one section:
// its exit's. A wake of a fiber whose own registration is still posted
// takes a section instead, so its events apply in order. With a replay
// session installed, readies take the sections above, which the log orders.
//
// live_ is an atomic; run counters, progress counts, the Tcb registry's
// lists and the Tcb caches (engine.h) are per worker. Idle workers
// register on an idle list behind its own lock, re-scan every domain, then
// park; a section that leaves ready work behind, or a post, unparks one of
// them. mu_ guards only cold state: bound threads, the spawn decisions and
// counters of callers that are not workers, and the snapshots of the flight
// recorder.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "replay/hooks.h"
#include "runtime/api.h"
#include "runtime/engine.h"
#include "util/spin_park.h"
#include "util/timer.h"

namespace dfth {

class RealEngine final : public Engine {
 public:
  explicit RealEngine(const RuntimeOptions& opts);

  EngineKind kind() const override { return EngineKind::Real; }
  RunStats run(const std::function<void()>& main_fn) override;

  Tcb* current() override;
  Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
             const char* site_file, int site_line) override;
  void* join(Tcb* t) override;
  void yield() override;
  bool block(SpinLock* guard, WaitList* list, std::uint64_t timeout_ns) override;
  void wake(Tcb* t) override;
  void charge_sync_op() override {}
  std::uint64_t now_ns() const override { return steady_now_ns(); }
  int trace_lanes() const override { return opts_.nprocs + 1; }
  void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) override;
  void on_free(std::size_t bytes) override;
  bool on_alloc_failed(std::size_t bytes, int attempt) override;
  void add_work(std::uint64_t ops) override { (void)ops; }
  void touch(const std::uint32_t* block_ids, std::size_t count) override {
    (void)block_ids;
    (void)count;
  }

 private:
  enum class Post : std::uint8_t {
    None,
    ReleaseGuard,   ///< unlock post_guard (fiber blocked on a wait list)
    Requeue,        ///< make post_fiber Ready again (yield / quota preempt)
    RunNext,        ///< fork dive: requeue post_fiber and run post_next
                    ///< (registered by the spawn) without a pick
    ExitCleanup,    ///< post_fiber exited: release its stack, retire it from
                    ///< the scheduler and make post_next (its joiner) ready
  };

  /// What a posted Tcb asks the domain's next section to apply.
  enum class PostKind : std::uint8_t {
    Spawn,  ///< register the child, then make it ready (the parent runs on)
    Dive,   ///< register the child, then requeue its parent
    Wake,   ///< make the woken fiber ready
  };

  struct alignas(64) Worker {
    int id = 0;
    int domain = 0;          ///< Scheduler::lock_domain(id)
    Context ctx;             ///< dispatch-loop context
    Tcb* current = nullptr;  ///< fiber this worker is executing
    Post post = Post::None;
    Tcb* post_fiber = nullptr;
    Tcb* post_next = nullptr;
    SpinLock* post_guard = nullptr;
    /// Steady-clock start of the slice the worker is currently running; the
    /// work/span profiler charges `now - slice_start_ns` when the fiber
    /// switches back (and uses it as the uncharged offset on edges taken
    /// from inside the slice). Maintained only while a profiler is installed.
    std::uint64_t slice_start_ns = 0;
    /// Steady-clock start of the pick before the next dispatch (profiler).
    std::uint64_t pick_start_ns = 0;
    /// Steady-clock instant the worker last finished a slice; the next
    /// dispatch reads it as its dispatch-gap measurement.
    std::uint64_t idle_since_ns = 0;
    LaneCounters counters;  ///< written only by this worker's kernel thread
    /// Dispatches, readies and exits on this lane; only this lane writes
    /// it, the watchdog sums every lane's.
    std::atomic<std::uint64_t> progress{0};
    /// On idle_ (written under idle_mu_; the worker reads it without).
    std::atomic<bool> idle{false};
    Parker parker;
    std::thread thread;
    /// Posted readies, newest first (intrusive through Tcb::post_link). Only
    /// this lane pushes; a section of the domain takes the whole list.
    alignas(64) std::atomic<Tcb*> posted{nullptr};
  };

  /// One lock domain of the scheduler, on a cache line of its own.
  struct alignas(64) Domain {
    SpinFutexLock lock;
  };

  /// One critical section of a domain's lock, counted on the caller's lane
  /// (w, or the external lane when w is null). It first applies the posted
  /// readies, so the section sees every event posted before it.
  class Section {
   public:
    Section(RealEngine& e, int domain, Worker* w)
        : lock_(e.domains_[static_cast<std::size_t>(domain)].lock) {
      lock_.lock();
      if (w) {
        ++w->counters.sched_lock_sections;
      } else {
        e.ext_sections_.fetch_add(1, std::memory_order_relaxed);
      }
      if (e.posts_) e.drain(w);
    }
    ~Section() { lock_.unlock(); }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    SpinFutexLock& lock_;
  };

  /// One critical section of mu_ (RunStats::global_lock_sections).
  class ColdSection {
   public:
    explicit ColdSection(RealEngine& e) : e_(e) {
      e_.mu_.lock();
      ++e_.global_sections_;
    }
    ~ColdSection() { e_.mu_.unlock(); }
    ColdSection(const ColdSection&) = delete;
    ColdSection& operator=(const ColdSection&) = delete;

   private:
    RealEngine& e_;
  };

  static void fiber_entry(void* arg);
  static Worker* this_worker();
  /// This kernel thread's trace lane: its worker's, else the external one.
  int trace_lane() const override;

  /// Applies f to the calling lane's counters: w's own, else ext_counters_
  /// under mu_. Never called with mu_ or a domain lock held.
  template <typename F>
  void count(Worker* w, F&& f);
  /// The domain a lane's own sections lock; callers that are not workers
  /// (host, timer, bound threads) act as processor 0.
  int own_domain(const Worker* w) const {
    return w ? w->domain : sched_->lock_domain(0);
  }
  /// Counts a dispatch, ready or exit on the calling lane for the watchdog.
  void bump_progress(Worker* w);
  /// The fiber stack size new_tcb gives a thread of `attr`.
  std::size_t fiber_stack(const Attr& attr) const;
  /// Spawn's fiber path: counts child live, then registers it (in a section
  /// of the caller's domain, or posted) and readies it unless the caller's
  /// worker dives into it, which it returns. *live: the count it observed.
  bool enqueue(Tcb* child, Tcb* parent, Worker* w, std::int64_t* live);
  /// Spawn's bound path: registers t under mu_, counted on w's lane, and
  /// runs it on a kernel thread of its own.
  void start_bound(Tcb* t, Worker* w);
  /// Switches fiber cur out of w for `reason`; w's next section requeues it.
  void requeue(Worker* w, Tcb* cur, std::uint64_t reason);
  void worker_loop(Worker& w);
  /// One scheduling transition of w: the section of its own domain settles
  /// the post-switch action and dispatches the fork dive's child or its own
  /// pick; a dry domain then starts a steal round. A posted fork dive takes
  /// no section. Returns the fiber to run, or nullptr when there is none (or
  /// the run is done).
  Tcb* transition(Worker& w, bool dive);
  /// Tries each other domain that holds ready work, from `start` on, in one
  /// section of the victim's lock each; returns the stolen, dispatched
  /// fiber or nullptr.
  Tcb* steal_round(Worker& w, int start);
  void run_fiber(Worker& w, Tcb* t);
  /// The scheduler half of w's post-switch action, first thing in the
  /// lane's next section (its own domain locked): requeue, or retire an
  /// exited fiber. Returns the exited fiber's joiner when the policy readies
  /// it in another section (Scheduler::keeps_home), else nullptr.
  Tcb* settle_post(Worker& w, replay::SectionLog& log);
  /// The half that needs no engine lock: release a guard or a stack.
  void release_post(Worker& w);
  /// Under the lock of ready_domain(t, proc): t becomes Ready with the
  /// scheduler.
  void make_ready_locked(Tcb* t, int proc, Worker* w);
  /// Pushes t onto w's posted list, then runs the idle handshake.
  void post(Worker& w, Tcb* t, PostKind kind);
  /// Domain locked: applies every lane's posted list, each in post order.
  void drain(Worker* w);
  /// Domain locked: applies one posted Tcb as lane `proc` posted it.
  void apply_post(Tcb* t, int proc, Worker* w);
  /// A gated section of t's ready domain that readies t and commits `kind`
  /// for `actor`, then unparks an idle worker if work is left.
  void ready_section(Tcb* t, Worker* w, replay::EvKind kind, std::uint64_t actor);
  /// Own domain locked: grants t to w and stages its Dispatch record with
  /// `flags` (kDispatchForkDive or 0) and the grant's deadline bit.
  void begin_dispatch(Worker& w, Tcb* t, std::uint64_t flags,
                      replay::SectionLog& log);
  // The idle handshake (DESIGN.md §2). A section that leaves ready work
  // behind calls wake_idle() after it unlocks: a seq_cst fence, then a read
  // of idle_count_. A worker that found nothing calls go_idle(): it bumps
  // idle_count_, fences, and re-scans every domain before it parks. One of
  // the two always sees the other, so no ready work waits on a parked lane.
  void wake_idle();
  void go_idle(Worker& w);
  /// Takes w off the idle list unless a waker already claimed it.
  void leave_idle(Worker& w);
  /// Once done_ is set: unparks every worker (each then sees done_ in its
  /// next transition and leaves) and the host.
  void wake_all();
  /// Every worker idle, live work remains, and no bound thread or armed
  /// timer that could make some ready. The caller's re-scan found nothing.
  bool all_stuck();
  /// Ready threads over all domains, each read under its lock.
  std::size_t ready_total();
  /// A bound waiter spins on its own state word: readies it (true), or
  /// false for a fiber. No scheduler state is touched, so this is not an
  /// ordered replay event (bound-thread wake timing is not bit-pinned).
  static bool ready_bound(Tcb* t);
  /// Observer side of a wake edge from the calling context.
  void note_wake(Tcb* t);

  /// Timer + stall-watchdog thread: fires due Sleepers and aborts with a
  /// flight-recorder dump when no dispatch progress happens for longer than
  /// WatchdogConfig::stall_deadline_ms.
  void supervisor_loop();
  /// Fires every due sleeper: in a pinned replay the one the log's next
  /// TimeoutClaim names, otherwise each whose deadline passed. The one
  /// place a timeout is claimed, for fibers and bound threads alike. Called
  /// with `lk` (sup_mu_) held; drops it around the claim-and-wake of each
  /// entry.
  void fire_sleepers(std::unique_lock<std::mutex>& lk);
  /// Best-effort crash dump through resil::dump_flight_recorder, then the
  /// abort. mu_ and every domain lock are try-locked within a bounded wait —
  /// a wedged worker holding one must not block the dump forever.
  [[noreturn]] void dump_flight(const char* reason, const char* what);

  int ndomains_ = 1;
  /// One domain and no replay session: readies are posted, not locked.
  bool posts_ = false;
  std::unique_ptr<Domain[]> domains_;

  // The only line every lane writes on a spawn or an exit. next_tid_ is
  // taken in the spawning fiber before any lock.
  alignas(64) std::atomic<std::uint64_t> next_tid_{1};
  std::atomic<std::int64_t> live_{0};  ///< the decrement reaching 0 sets done_

  // Read on every transition, written a few times per run.
  alignas(64) std::atomic<bool> done_{false};  ///< the host polls it
  std::atomic<std::int64_t> bound_live_{0};
  Parker host_parker_;  ///< host thread in run(): completion

  // The idle list, written only when a worker goes idle or is claimed.
  alignas(64) SpinFutexLock idle_mu_;
  std::atomic<int> idle_count_{0};  ///< idle_.size(), readable without idle_mu_
  std::vector<int> idle_;  ///< parked or parking worker ids (guarded by idle_mu_)

  /// The engine-global lock of cold state: bound threads, ext_counters_
  /// and the flight recorder's snapshot. Never held with a domain lock,
  /// apart from the flight recorder's try-locks.
  alignas(64) SpinFutexLock mu_;
  std::uint64_t global_sections_ = 0;  ///< sections of mu_ (guarded by mu_)
  /// The lane of the host, the supervisor and bound threads.
  LaneCounters ext_counters_;          ///< guarded by mu_
  std::vector<std::thread> bound_threads_;  ///< guarded by mu_
  /// Domain sections and progress of callers that are not workers.
  std::atomic<std::uint64_t> ext_sections_{0};
  std::atomic<std::uint64_t> ext_progress_{0};

  std::vector<Worker> workers_;

  // -- supervisor (timed waits + stall watchdog) ----------------------------
  std::mutex sup_mu_;                 ///< guards sleepers_, firing_, sup_stop_
  std::condition_variable sup_cv_;
  LaneCounters timer_counters_;       ///< written only by the supervisor
  Tcb* firing_ = nullptr;             ///< sleeper whose fire is in flight
  bool sup_stop_ = false;
  std::thread supervisor_;
};

}  // namespace dfth
