// Per-run statistics returned by dfth::run() — the raw material for every
// table and figure in the paper's evaluation.
#pragma once

#include <cstdint>

#include "core/scheduler.h"

namespace dfth {

enum class EngineKind { Sim, Real };
const char* to_string(EngineKind kind);

/// Virtual-time accounting by category (SimEngine only); the paper's Figure
/// 6 presents exactly this kind of execution-time profile.
struct Breakdown {
  double work_us = 0;        ///< useful computation (incl. pressure slowdown)
  double thread_us = 0;      ///< create/join/exit/context-switch costs
  double mem_us = 0;         ///< malloc/free, fresh pages, stack allocation
  double sync_us = 0;        ///< mutex/semaphore/condvar/barrier operations
  double sched_us = 0;       ///< ready-queue ops + scheduler-lock contention
  double idle_us = 0;        ///< processors with nothing eligible to run

  /// The categories as an iterable list, so consumers (Figure 6 table, JSON
  /// export, totals) cannot desync from the fields above.
  static constexpr int kNumCategories = 6;
  static const char* category_name(int i) {
    constexpr const char* names[kNumCategories] = {
        "work", "thread", "mem", "sync", "sched", "idle"};
    return (i >= 0 && i < kNumCategories) ? names[i] : "?";
  }
  double category(int i) const {
    const double vals[kNumCategories] = {work_us, thread_us, mem_us,
                                         sync_us, sched_us,  idle_us};
    return (i >= 0 && i < kNumCategories) ? vals[i] : 0;
  }
  double& category(int i) {
    double* vals[kNumCategories] = {&work_us, &thread_us, &mem_us,
                                    &sync_us, &sched_us,  &idle_us};
    return *vals[(i >= 0 && i < kNumCategories) ? i : 0];
  }

  double total_us() const {
    double t = 0;
    for (int i = 0; i < kNumCategories; ++i) t += category(i);
    return t;
  }
};

/// Work/span summary from the parallelism profiler (src/obs/profile.h).
/// Plain integers so RunStats stays a value type with no obs dependency;
/// populated only when a Profiler was installed for the run (enabled=true).
///
/// Invariants the profiler maintains (and tests/obs/profile_test.cpp checks):
///   span_ns          <= work_ns            (the critical path is part of T1)
///   span_ns          <= burdened_span_ns   (burden only adds)
///   work_ns + overhead_ns == busy time     (everything the lanes did except
///                                           sitting idle)
struct ProfileStats {
  bool enabled = false;
  std::uint64_t work_ns = 0;           ///< T1: total useful fiber time
  std::uint64_t span_ns = 0;           ///< T_inf: critical path, pure charges
  std::uint64_t burdened_span_ns = 0;  ///< T_inf + per-edge scheduler burden
  std::uint64_t overhead_ns = 0;       ///< dispatch/fork/exit/steal/lock time
  std::uint64_t fibers = 0;            ///< fibers seen (incl. main + dummies)
  /// The paper's d: deepest fork nesting (main = 1). A serial depth-first
  /// schedule holds at most this many threads live at once (Fig 1).
  std::uint32_t fork_depth = 0;
  /// The paper's D: segments on the critical path. A fork ends the current
  /// segment of parent and child; a join or wake that lengthens a fiber's
  /// span continues the winner's path with one more segment.
  std::uint32_t span_segments = 0;

  double parallelism() const {
    return span_ns ? static_cast<double>(work_ns) / static_cast<double>(span_ns)
                   : 0.0;
  }
  /// Greedy-scheduler lower bound on T_p: both busy/p and span are floors.
  double predict_lo_ns(int p) const {
    const double busy = static_cast<double>(work_ns + overhead_ns);
    const double sp = static_cast<double>(span_ns);
    return p > 0 ? (busy / p > sp ? busy / p : sp) : 0.0;
  }
  /// Brent-style upper bound with scheduling burden: busy/p + burdened span.
  double predict_hi_ns(int p) const {
    const double busy = static_cast<double>(work_ns + overhead_ns);
    return p > 0 ? busy / p + static_cast<double>(burdened_span_ns) : 0.0;
  }
};

struct RunStats {
  // Configuration echo.
  EngineKind engine = EngineKind::Sim;
  SchedKind sched = SchedKind::AsyncDf;
  int nprocs = 1;

  // Thread accounting.
  std::uint64_t threads_created = 0;   ///< includes the main thread
  std::uint64_t dummy_threads = 0;     ///< δ no-op threads for large allocs
  std::int64_t max_live_threads = 0;   ///< peak simultaneously-active threads
  /// Distinct Tcbs the run allocated: a thread's Tcb is recycled once it
  /// has exited and been joined or detached, so this tracks the peak of
  /// threads not yet both, plus the free Tcbs the lanes' caches hold.
  std::uint64_t tcbs_allocated = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t quota_preemptions = 0;
  std::uint64_t steals = 0;            ///< work stealing only

  // Resilience (degradation events survived; see src/resil/).
  std::uint64_t oom_preemptions = 0;   ///< heap exhaustion → AsyncDF-style preempt
  std::uint64_t inline_runs = 0;       ///< stack/ctx failure → child ran inline
  std::uint64_t sync_timeouts = 0;     ///< timed waits that expired
  std::uint64_t faults_injected = 0;   ///< resil injector failures this run
  std::uint64_t faults_recovered = 0;  ///< injected failures absorbed this run
  std::uint64_t deadline_expirations = 0;  ///< cancel tokens fired at dispatch
  /// Critical sections of the RealEngine's scheduler lock domains, summed
  /// over domains (0 on Sim); at p = 1 a spawned AsyncDF thread costs at
  /// most three.
  std::uint64_t sched_lock_sections = 0;
  /// Critical sections of the RealEngine's engine-global lock, which guards
  /// only cold state (bound threads, counters of callers that are not
  /// workers); 0 on Sim.
  std::uint64_t global_lock_sections = 0;

  // Space (bytes).
  std::int64_t heap_peak = 0;          ///< the paper's space metric
  std::int64_t stack_peak = 0;         ///< simulated stack footprint peak
  std::uint64_t stacks_fresh = 0;
  std::uint64_t stacks_reused = 0;
  /// Largest stack usage any single fiber actually touched (watermark scan
  /// on release). Nonzero only in -DDFTH_STACK_USAGE builds;
  /// tools/stack_bound.py compares it against the static worst-case bound.
  std::int64_t stack_high_water = 0;

  // Time.
  double elapsed_us = 0;  ///< virtual time (Sim) or wall-clock (Real)
  Breakdown breakdown;    ///< Sim only

  // Locality model.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Work/span profile (only when a Profiler was installed; see src/obs/).
  ProfileStats profile;
};

}  // namespace dfth
