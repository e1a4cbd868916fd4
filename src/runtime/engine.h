// Execution-engine interface. The public API in runtime/api.h dispatches
// every thread operation to the active engine:
//   * SimEngine — deterministic discrete-event model of a p-processor SMP
//     (runtime/sim_engine.h); regenerates the paper's measurements.
//   * RealEngine — kernel-thread workers multiplexing fibers
//     (runtime/real_engine.h); true concurrency for stress tests and for
//     the Figure 3 operation-cost microbenchmarks.
//
// Threading contract: engine methods are called from fiber context (user
// code) except run(), which is called from the host thread that owns the
// runtime for the duration of the run.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/run_stats.h"
#include "threads/tcb.h"
#include "util/spinlock.h"

namespace dfth {

/// Engine::block's timeout for a wait without a timer.
inline constexpr std::uint64_t kNoTimeout = ~std::uint64_t{0};

class Engine {
 public:
  virtual ~Engine() = default;

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
  virtual void* join(Tcb* t) = 0;
  virtual void detach(Tcb* t) = 0;
  virtual void yield() = 0;

  // -- synchronization support ----------------------------------------------
  /// Blocks the current thread: the one blocking wait behind every sync
  /// primitive and join. The caller has already enqueued itself on `list`
  /// and set its state to Blocked while holding `guard`; the engine releases
  /// `guard` only after the fiber's context is fully saved (so a concurrent
  /// wake() can never resume a half-saved context). A timed wait
  /// (`timeout_ns` other than kNoTimeout: virtual ns in Sim, steady-clock ns
  /// in Real) arms a timer before the guard is released. If it fires before
  /// a waker pops the thread from `list`, the timer removes it itself (the
  /// wait-list membership under `guard` is the claim token — exactly one of
  /// timer and waker wins) and resumes it. Returns false when the timer won,
  /// true when a waker did. Only a timed wait reads `list`, so joins and
  /// untimed waits may pass null. An untimed wait reads no clock.
  virtual bool block(SpinLock* guard, WaitList* list, std::uint64_t timeout_ns) = 0;

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
  virtual bool uses_alloc_quota() const = 0;
  virtual std::size_t quota_bytes() const = 0;

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
