// SimEngine: a deterministic discrete-event simulation of a p-processor
// shared-memory machine executing the user's real threaded code.
//
// Why it exists: the paper's speedup and memory-vs-processors curves are
// functions of the *schedule* — which thread runs where and when, how many
// threads are simultaneously live, and how much memory the resulting
// interleaving keeps allocated — on a 1998 p-processor SMP. The host has 4
// cores and RealEngine wall-clock is measured by bench/perf, but SimEngine
// stays the reference for the paper's shapes: it reproduces the schedule
// exactly at any p. Fibers execute their real code on one host thread,
// virtual processors carry virtual clocks, and the
// pluggable Scheduler is consulted with the same lock-serialized discipline
// as the Solaris library. Costs come from CostModel (calibrated to the
// paper's Figure 3); determinism comes from integer nanosecond clocks and
// strictly ordered event processing (min-clock processor first, ties to the
// processor holding work, then by id).
//
// Execution model: the engine owns one host context (`loop_ctx_`); a fiber
// runs until it reaches a *scheduling point* — fork, exit, block, yield, or
// memory-quota exhaustion — then switches back, leaving an event
// description and its accrued virtual costs. Between scheduling points
// fibers accrue cost through annotate_work / df_malloc / annotate_touch /
// sync operations; threads are never preempted mid-run (user-level threads
// at one priority level run to their next scheduling point, as in the
// paper's library).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "runtime/api.h"
#include "runtime/engine.h"

namespace dfth {

class SimEngine final : public Engine {
 public:
  explicit SimEngine(const RuntimeOptions& opts);
  ~SimEngine() override;

  EngineKind kind() const override { return EngineKind::Sim; }
  RunStats run(const std::function<void()>& main_fn) override;

  Tcb* current() override { return cur_; }
  Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
             const char* site_file, int site_line) override;
  void* join(Tcb* t) override;
  void detach(Tcb* t) override;
  void yield() override;
  void block_current(SpinLock* guard) override;
  void block_current_timed(SpinLock* guard, WaitList* list,
                           std::uint64_t timeout_ns) override;
  void wake(Tcb* t) override;
  void charge_sync_op() override;
  std::uint64_t now_ns() const override { return vnow_ns(); }
  int trace_lanes() const override { return opts_.nprocs; }
  void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) override;
  void on_free(std::size_t bytes) override;
  bool uses_alloc_quota() const override;
  /// The *effective* quota: starts at opts.mem_quota and shrinks when OOM
  /// recovery degrades the run toward serial order (on_alloc_failed).
  std::size_t quota_bytes() const override { return eff_quota_; }
  bool on_alloc_failed(std::size_t bytes, int attempt) override;
  void add_work(std::uint64_t ops) override;
  void touch(const std::uint32_t* block_ids, std::size_t count) override;

 private:
  /// SyncPause is a scheduling point that does NOT preempt: the fiber stays
  /// on its processor and resumes when that processor is next up. Every
  /// synchronization operation raises it so that lock-protected side effects
  /// from virtually-concurrent threads linearize in virtual-time order —
  /// otherwise one fiber could, e.g., drain a whole shared work queue in
  /// host order while its virtual clock says others should have interleaved.
  /// OomPreempt mirrors QuotaPreempt: heap exhaustion is handled exactly
  /// like quota exhaustion (reinsert leftmost-ready, retry later), per the
  /// resilience layer's AsyncDF-style degradation.
  enum class Ev : std::uint8_t {
    None, Spawn, Exit, Block, Yield, QuotaPreempt, OomPreempt, SyncPause,
  };
  enum Cat : int { kWork = 0, kThread = 1, kMem = 2, kSync = 3, kNumCats = 4 };

  /// Tiny per-processor LRU set over application block ids (locality model).
  struct LruCache {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> slots;
    std::uint64_t tick = 0;
    std::size_t capacity = 0;
    bool touch_block(std::uint32_t id);
  };

  struct VProc {
    std::uint64_t clock_ns = 0;
    Tcb* running = nullptr;
    Breakdown bd;
    LruCache cache;
    /// Idle ns accumulated since this lane last did anything; consumed (and
    /// reset) by the next dispatch as its dispatch-gap measurement.
    std::uint64_t pending_gap_ns = 0;
  };

  /// A timed wait's timer entry: fires at deadline_ns unless the waiter was
  /// claimed (popped from `list` under `guard`) by a waker first.
  struct SimSleeper {
    std::uint64_t deadline_ns = 0;
    Tcb* t = nullptr;
    SpinLock* guard = nullptr;
    WaitList* list = nullptr;
  };

  static void fiber_entry(void* arg);

  Tcb* make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy);
  /// Degraded spawn: no stack/context could be acquired, so the child runs
  /// to completion right here on the parent's stack (legal: that is the
  /// serial depth-first order).
  Tcb* run_inline(Tcb* child);
  void charge(Cat cat, double us);
  std::uint64_t vnow_ns() const;
  /// Sum of the not-yet-applied fiber charges: the profiler's span edges
  /// take it as the "uncharged work" offset so fiber-context edges are exact.
  std::uint64_t pend_total_ns() const {
    return pend_ns_[kWork] + pend_ns_[kThread] + pend_ns_[kMem] + pend_ns_[kSync];
  }
  void switch_to_loop();
  void fire_due_sleepers(VProc& vp, int pid);
  void cancel_sleeper(Tcb* t);
  /// Best-effort crash dump through resil::dump_flight_recorder.
  void dump_flight(const char* reason);

  void sim_loop();
  int pick_proc() const;
  void apply_pending(VProc& vp);
  void attempt_dispatch(VProc& vp, int pid);
  void handle_event(VProc& vp, int pid);
  /// The real engine's pick path: proc's own domain first, then a steal
  /// round over the other domains (core/scheduler.h). Charges the lock of
  /// the domain the thread came from; nullptr when nothing is eligible.
  Tcb* pick_or_steal(VProc& vp, int pid, std::uint64_t* earliest);
  /// Serializes queue ops within one lock domain, charging lock wait to vp
  /// (paper §6: the global list's lock; work stealing gets one lock per
  /// processor and the clustered scheduler one per SMP).
  void sched_lock_acquire(VProc& vp, int domain);
  /// sched_lock_acquire on processor pid's own domain.
  void sched_lock_own(VProc& vp, int pid) {
    sched_lock_acquire(vp, sched_->lock_domain(pid));
  }
  void make_ready(VProc& vp, int pid, Tcb* t);
  /// Deadline check at a dispatch: fires `t`'s cancel token (once per token)
  /// when the virtual clock has passed its deadline, and returns the
  /// kDispatchDeadline flag to fold into the Dispatch record's `b`.
  /// Cooperative — the fiber still runs; its body polls
  /// dfth::cancel_requested() and drains.
  std::uint64_t expire_on_dispatch(Tcb* t, int pid, std::uint64_t now);
  [[noreturn]] void report_deadlock();

  // Simulated stack pool (Solaris stack caching): maps simulated stack size
  // to the number of cached stacks; tracks mapped-bytes footprint.
  double sim_stack_acquire_us(std::size_t bytes);
  void sim_stack_release(std::size_t bytes);

  /// Records a time-series sample (ready depth, stack footprint) if the
  /// sampling instant has been reached; decimates to bound sample count.
  void maybe_sample(std::uint64_t now_ns);
  /// Closes the time series at `completion_ns` and hands it to the tracer.
  void finish_trace(std::uint64_t completion_ns);

  RuntimeOptions opts_;
  std::unique_ptr<Scheduler> sched_;
  std::vector<VProc> procs_;
  std::vector<Tcb*> all_tcbs_;
  Context loop_ctx_;

  Tcb* cur_ = nullptr;         ///< fiber currently executing (host CPU)
  int cur_proc_ = -1;          ///< virtual processor it executes on
  bool in_fiber_ = false;
  std::uint64_t loop_now_ns_ = 0;  ///< vnow while handling events in the loop

  std::vector<std::uint64_t> lock_free_ns_;  ///< per-domain lock availability
  std::int64_t live_ = 0;
  std::uint64_t next_tid_ = 1;
  std::size_t eff_quota_ = 0;          ///< effective K (shrinks on OOM recovery)
  std::vector<SimSleeper> sleepers_;   ///< armed timed-wait timers

  std::uint64_t pend_ns_[kNumCats] = {0, 0, 0, 0};
  Ev ev_ = Ev::None;
  Tcb* ev_child_ = nullptr;
  SpinLock* ev_guard_ = nullptr;

  /// Thread birth (+1) / death (-1) events in *virtual* time. The max
  /// simultaneously-active thread count must be computed over virtual time:
  /// a fiber without internal scheduling points executes birth-to-death in
  /// one host resume, so a simulation-order counter would never see two
  /// virtually-concurrent threads alive together.
  std::vector<std::pair<std::uint64_t, std::int32_t>> live_events_;

  /// Allocation (+bytes) / free (-bytes) events in virtual time, for the
  /// same reason: the heap high-water (the paper's space metric) is the max
  /// over virtual time of the live-byte level, not the host-order peak.
  std::vector<std::pair<std::uint64_t, std::int64_t>> heap_events_;
  std::int64_t heap_initial_live_ = 0;

  /// Online time-series samples (ts / ready / stack); the exact live-thread
  /// and heap levels are filled in from the sorted event lists at run end,
  /// then everything is handed to the Tracer.
  std::vector<obs::Sample> trace_samples_;
  std::uint64_t next_sample_ns_ = 0;
  std::uint64_t sample_interval_ns_ = 0;

  std::unordered_map<std::size_t, std::uint64_t> sim_stack_pool_;
  std::int64_t sim_stack_live_ = 0;
  std::int64_t sim_stack_pooled_ = 0;
  std::int64_t sim_stack_peak_ = 0;
  std::int64_t sim_stack_touched_ = 0;  ///< resident stack bytes (pressure)

  RunStats stats_;
};

}  // namespace dfth
