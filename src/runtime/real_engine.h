// RealEngine: user-level threads multiplexed over kernel-thread workers —
// the two-level Solaris model (unbound Pthreads over LWPs) built for real.
//
// nprocs kernel threads ("LWPs") each run a dispatch loop; unbound fibers
// are handed out by the pluggable Scheduler under one global lock (the
// same serialized-scheduler structure as the paper's library, §6). Bound
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
// Lock protocol (DESIGN.md §2): mu_ guards scheduler state only — the
// policy's queues, live_/bound_live_/done_, and the idle-worker list. Each
// scheduling transition is one section. A spawn registers the child. A
// worker folds its post-switch action (requeue, a fork dive's parent
// requeue, or an exited fiber's retirement with its joiner's wake) into the
// section of its next dispatch: the fork dive's child, or its next pick.
// Run counters and the created-Tcb lists are per worker. mu_ spins before
// it sleeps; an idle worker spins on its own Parker before it sleeps, and
// is unparked only by a section that leaves ready work nobody else will
// take.
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

namespace dfth {

class RealEngine final : public Engine {
 public:
  explicit RealEngine(const RuntimeOptions& opts);
  ~RealEngine() override;

  EngineKind kind() const override { return EngineKind::Real; }
  RunStats run(const std::function<void()>& main_fn) override;

  Tcb* current() override;
  Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
             const char* site_file, int site_line) override;
  void* join(Tcb* t) override;
  void detach(Tcb* t) override;
  void yield() override;
  void block_current(SpinLock* guard) override;
  void block_current_timed(SpinLock* guard, WaitList* list,
                           std::uint64_t timeout_ns) override;
  void wake(Tcb* t) override;
  void charge_sync_op() override {}
  std::uint64_t now_ns() const override;
  void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) override;
  void on_free(std::size_t bytes) override;
  bool uses_alloc_quota() const override;
  /// Effective K: starts at opts.mem_quota, shrunk by OOM recovery.
  std::size_t quota_bytes() const override {
    return eff_quota_.load(std::memory_order_relaxed);
  }
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

  /// Run counters one lane owns. A worker's are written only by its own
  /// kernel thread; ext_counters_ (host, supervisor, bound threads) only
  /// under mu_. run() sums them into the RunStats.
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

  struct alignas(64) Worker {
    int id = 0;
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
    /// Steady-clock instant the worker last finished a slice; the next
    /// dispatch reads it as its dispatch-gap measurement.
    std::uint64_t idle_since_ns = 0;
    LaneCounters counters;
    /// Tcbs created by fibers on this worker (intrusive list through
    /// Tcb::created_next), read by the destructor and the flight recorder.
    std::atomic<Tcb*> created{nullptr};
    bool idle = false;  ///< on idle_ (guarded by mu_)
    Parker parker;
    std::thread thread;
  };

  /// One critical section of mu_, counted on the caller's lane.
  class Section {
   public:
    explicit Section(RealEngine& e) : e_(e) {
      e_.mu_.lock();
      ++e_.counters().sched_lock_sections;
    }
    ~Section() { e_.mu_.unlock(); }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    RealEngine& e_;
  };

  /// A timed wait's timer entry, fired by the supervisor thread. Deadlines
  /// are steady-clock nanoseconds (steady_now_ns).
  struct RtSleeper {
    std::uint64_t deadline_ns = 0;
    Tcb* t = nullptr;
    SpinLock* guard = nullptr;
    WaitList* list = nullptr;
  };

  static void fiber_entry(void* arg);
  static Worker* this_worker();

  /// The calling lane's counters: its worker's, else ext_counters_ (then
  /// the caller must hold mu_).
  LaneCounters& counters();
  Tcb* make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy);
  /// Links t into the calling lane's created list.
  void remember(Tcb* t);
  /// Degraded spawn: no stack/context for the child — run it to completion
  /// on the caller's stack (the serial depth-first order). Never registered
  /// with the scheduler.
  Tcb* run_inline(Tcb* child);
  void worker_loop(Worker& w);
  void run_fiber(Worker& w, Tcb* t);
  /// The scheduler half of w's post-switch action, first thing in the
  /// lane's next section (mu_ held): requeue, or retire an exited fiber.
  void settle_post(Worker& w, replay::SectionLog& log);
  /// The half that needs no engine lock: release a guard or a stack.
  void release_post(Worker& w);
  /// mu_ held: t becomes Ready with the scheduler.
  void make_ready_locked(Tcb* t, int proc_hint);
  /// mu_ held: marks t Running on w and stages its Dispatch record.
  void begin_dispatch(Worker& w, Tcb* t, std::uint64_t flags,
                      replay::SectionLog& log);
  /// Deadline check folded into a dispatch: fires `t`'s cancel token when
  /// its deadline passed on the steady clock, and returns `base` (the
  /// kDispatchForkDive flag or 0) OR'd with kDispatchDeadline when it fired.
  /// In a pinned replay the recorded Dispatch flags win over the live clock
  /// — wall time drifts between runs, and the flag is the one place the
  /// expire-or-not race is logged. Called with mu_ held, immediately before
  /// the Dispatch record is staged.
  std::uint64_t dispatch_cancel_flags(Worker& w, Tcb* t, std::uint64_t base);
  /// mu_ held: when ready work is left and a worker is idle, takes one off
  /// idle_ for the caller to unpark after the section.
  Worker* claim_idle_worker();
  /// Once done_ is set: unparks every worker (each then sees done_ in its
  /// next section and leaves) and the host.
  void wake_all();
  /// mu_ held: every worker idle, live work remains, none of it ready, and
  /// no bound thread that could make some ready.
  bool all_stuck() const;
  /// Publishes t's exit under its join lock; returns the blocked joiner
  /// (not yet woken), if any.
  Tcb* publish_exit(Tcb* t);
  /// Trace + profiler side of a wake edge from the calling context.
  void note_wake(Tcb* t);
  void start_bound_thread(Tcb* t);
  void finish_bound_thread(Tcb* t);

  /// Timer + stall-watchdog thread: fires due RtSleepers and aborts with a
  /// flight-recorder dump when no dispatch progress happens for longer than
  /// WatchdogConfig::stall_deadline_ms.
  void supervisor_loop();
  /// Fires every due sleeper. Called with `lk` (sup_mu_) held; drops it
  /// around the claim-and-wake of each entry.
  void fire_due_sleepers(std::unique_lock<std::mutex>& lk);
#if DFTH_REPLAY
  /// Replay-pinned variant: fires a sleeper exactly when the schedule log's
  /// next ordered decision is the timer's TimeoutClaim for it — wall-clock
  /// deadlines are ignored, the recorded timer-vs-waker race outcome is
  /// what's honored. Free-runs via fire_due_sleepers once the log ends.
  void replay_fire_sleepers(std::unique_lock<std::mutex>& lk);
#endif
  /// Removes t's timer entry, waiting out an in-flight fire for t so a
  /// stale timer can never claim t's *next* wait.
  void cancel_sleeper(Tcb* t);
  /// Best-effort crash dump through resil::dump_flight_recorder. When
  /// have_lock is false, mu_ is try-locked (bounded) — a wedged worker
  /// holding it must not block the dump forever.
  void dump_flight(const char* reason, bool have_lock);
  template <typename F>
  void for_each_tcb(F&& f) const;

  RuntimeOptions opts_;
  std::unique_ptr<Scheduler> sched_;

  // The lock shares its cache line with the engine state every section
  // touches, so a section's owner fetches the line once.
  alignas(64) SpinFutexLock mu_;  ///< the global scheduler lock
  std::atomic<bool> done_{false};  ///< written under mu_; the host polls it
  std::int64_t live_ = 0;
  std::int64_t bound_live_ = 0;
  /// Monotonic dispatch/wake/exit counter, bumped under mu_; the watchdog
  /// trips when it stops moving while live work remains.
  std::atomic<std::uint64_t> progress_{0};
  std::vector<int> idle_;  ///< parked or parking worker ids (guarded by mu_)
  // Atomic: make_tcb runs in the spawning fiber before it takes mu_, so
  // concurrent spawns on different workers allocate ids in parallel.
  alignas(64) std::atomic<std::uint64_t> next_tid_{1};
  Parker host_parker_;  ///< host thread in run(): completion

  std::vector<Worker> workers_;
  LaneCounters ext_counters_;          ///< guarded by mu_
  std::atomic<Tcb*> ext_created_{nullptr};  ///< Tcbs made off the workers
  std::vector<std::thread> bound_threads_;  ///< guarded by mu_

  /// Effective allocation quota K; OOM recovery halves it (atomic: read on
  /// every dispatch without mu_).
  std::atomic<std::size_t> eff_quota_{0};

  // -- supervisor (timed waits + stall watchdog) ----------------------------
  std::mutex sup_mu_;                 ///< guards sleepers_, firing_, sup_stop_
  std::condition_variable sup_cv_;
  std::vector<RtSleeper> sleepers_;
  Tcb* firing_ = nullptr;             ///< sleeper whose fire is in flight
  bool sup_stop_ = false;
  std::thread supervisor_;

  RunStats stats_;  ///< configuration echo; counters merged at the end of run()
};

}  // namespace dfth
