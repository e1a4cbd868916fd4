// Public API of the DFThreads runtime — the Pthreads-shaped surface the
// paper's benchmarks program against.
//
// Typical use:
//
//   dfth::RuntimeOptions opts;
//   opts.engine = dfth::EngineKind::Sim;
//   opts.sched = dfth::SchedKind::AsyncDf;
//   opts.nprocs = 8;
//   dfth::RunStats stats = dfth::run(opts, [] {
//     auto t = dfth::spawn([] { ...; return nullptr; });
//     dfth::join(t);
//   });
//
// Everything between run()'s braces executes on user-level threads; spawn/
// join/detach/yield plus the primitives in runtime/sync.h mirror
// pthread_create/join/detach/yield, mutexes, condition variables,
// semaphores and barriers. df_malloc/df_free are the tracked allocation
// entry points (the paper's modified malloc that maintains the memory quota
// and forks dummy threads); annotate_work/annotate_touch feed the
// simulator's virtual clock and locality model and cost nothing on the real
// engine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <source_location>

#include "resil/watchdog.h"
#include "runtime/cost_model.h"
#include "runtime/run_stats.h"
#include "threads/tcb.h"

namespace dfth {

namespace obs {
class Tracer;
class Profiler;
}

namespace resil {
struct FaultPlan;
}

struct RuntimeOptions {
  EngineKind engine = EngineKind::Sim;
  SchedKind sched = SchedKind::AsyncDf;
  int nprocs = 1;

  /// Default stack size for threads whose Attr does not request one.
  /// Solaris defaults to 1 MB; the paper's §4 item 3 reduces it to 8 KB.
  std::size_t default_stack_size = 1 << 20;

  /// Memory quota K for the space-efficient scheduler (§4 item 2).
  std::size_t mem_quota = 32 << 10;

  /// Seed for any scheduler randomness (work-stealing victim selection).
  std::uint64_t seed = 0x5eed;

  /// Processors per cluster ("SMP") for SchedKind::ClusteredAdf.
  int cluster_size = 4;

  /// Cost-model constants for the simulation engine.
  CostModel cost;

  /// Optional caller-owned trace session (obs/trace.h): when set, the
  /// engine records scheduler events and time-series samples into it for
  /// obs/export.h / tools/dfth-trace.
  obs::Tracer* tracer = nullptr;

  /// Optional caller-owned work/span profiling session (obs/profile.h):
  /// when set, the engine measures work, span, burdened span and
  /// scheduler overhead, merges the summary into
  /// RunStats::profile, and keeps per-spawn-site attribution in the session
  /// for obs/export.h / tools/dfth-prof.
  obs::Profiler* profiler = nullptr;

  /// Optional caller-owned fault-injection plan (resil/faults.h): when set,
  /// dfth::run arms the injector for the duration of the run, so the named
  /// resource-acquisition sites fail on the plan's deterministic schedule.
  /// Unset, every fault probe is one load and a branch.
  const resil::FaultPlan* fault_plan = nullptr;

  /// Stall-watchdog deadlines and dump destination (resil/watchdog.h).
  /// Disabled by default.
  resil::WatchdogConfig watchdog;

  /// When non-empty, record every nondeterministic scheduling/sync/fault
  /// decision of this run into a binary schedule log at this path. If the
  /// run aborts (DFTH_CHECK, watchdog kill), the in-flight log is flushed so
  /// the failure itself is replayable. Mutually exclusive with replay_path.
  std::string record_path;

  /// When non-empty, drive this run from a previously recorded schedule log
  /// instead of live scheduling decisions.
  /// On EngineKind::Real the log must come from a matching Real run (same
  /// sched/nprocs/seed/quota) and is replayed decision-for-decision; on
  /// EngineKind::Sim any log is cross-replayed under virtual time. A log
  /// that recorded a fault plan re-arms the identical plan, overriding
  /// fault_plan.
  std::string replay_path;

  /// Free-form label (e.g. the app name) embedded in a recorded log's
  /// header so tools/dfth-replay can re-create the run. Truncated to 63
  /// chars.
  std::string record_tag;
};

/// Opaque thread handle (cheap to copy). Valid until joined or detached,
/// as in pthreads: the thread's control block is then recycled once the
/// thread has exited. Ids are never reused within a run, so a join or
/// detach through a stale handle still fails loudly.
class Thread {
 public:
  Thread() = default;
  bool valid() const { return tcb_ != nullptr; }
  /// The thread's id; stays readable after the join or detach.
  std::uint64_t id() const { return id_; }

  /// Internal: wraps an engine-owned control block that cannot be recycled
  /// yet. Library code only.
  explicit Thread(Tcb* tcb) : tcb_(tcb), id_(tcb ? tcb->id : 0) {}

 private:
  friend void* join(Thread);
  friend void detach(Thread);
  Tcb* tcb_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Runs `main_fn` as the main thread under the given options; returns when
/// all threads have exited. Not reentrant: one runtime at a time per process.
RunStats run(const RuntimeOptions& opts, const std::function<void()>& main_fn);

/// True between run() entry and exit (i.e., engine() != nullptr).
bool in_runtime();

/// Creates a thread executing `fn`; pthread_create equivalent. The defaulted
/// source_location captures the caller's file:line as the thread's spawn
/// site — the key the work/span profiler attributes critical-path time and
/// collapsed-stack work to.
Thread spawn(std::function<void*()> fn, const Attr& attr = {},
             std::source_location site = std::source_location::current());

/// Waits for `t` and returns its result; pthread_join equivalent.
void* join(Thread t);

/// Marks `t` detached; its resources are reclaimed at exit without a join.
/// The handle is invalid afterwards.
void detach(Thread t);

/// Yields the processor back to the scheduler; pthread_yield equivalent.
void yield();

/// Id of the calling thread (0 outside the runtime).
std::uint64_t self_id();

// -- cooperative cancellation (threads/cancel.h) -------------------------------

/// True when the calling fiber's cancellation scope has fired (deadline
/// expired at a dispatch, or the owner cancelled explicitly). Fibers under a
/// deadline poll this at safe points — typically before spawning children —
/// and early-return; they must still reach their joins/barriers so peers
/// never deadlock. Always false outside any scope or outside run(). Under
/// record/replay each poll is a logged decision, so replay reproduces the
/// observed value even though the underlying read races with expiry.
bool cancel_requested();

/// Engine-clock nanoseconds: virtual time in Sim, steady wall time in Real,
/// steady wall time outside run(). The clock CancelToken::deadline_ns and
/// the sync timed-waits are measured against.
std::uint64_t now_ns();

// -- tracked allocation ------------------------------------------------------

/// Error-code channel for the fallible API variants. No exception ever
/// crosses a fiber boundary (a bad_alloc unwinding through a context switch
/// is unrecoverable), so resource exhaustion is reported by value.
enum class DfStatus : std::uint8_t {
  kOk = 0,
  kNoMem,       ///< heap exhausted after the engine's bounded OOM-preempt
                ///< retries and no other thread holds tracked memory: nothing
                ///< will ever free, the allocation can never succeed
  kTimedOut,    ///< a timed wait expired (reserved for callers layering on sync)
  kOverloaded,  ///< heap exhausted while other threads hold tracked bytes —
                ///< transient backpressure; retry after they free, or shed
                ///< load (the serving admission controller's reject signal)
};

const char* to_string(DfStatus status);

/// Allocates through the tracked heap, charging the calling thread's memory
/// quota. Under the space-efficient scheduler, an allocation larger than the
/// quota K first forks ceil(bytes/K) dummy threads as a binary tree (§4 item
/// 2); quota exhaustion preempts the calling thread. Usable outside run()
/// (plain tracked allocation).
///
/// On heap exhaustion the engine recovers AsyncDF-style before failing:
/// the fiber is preempted exactly as if its quota were exhausted (reinserted
/// leftmost-ready so threads earlier in the serial order can run and free
/// memory), the effective quota K shrinks, and the allocation is retried a
/// bounded number of times. Only when every retry fails does df_malloc
/// return nullptr (and df_try_malloc report DfStatus::kNoMem).
void* df_malloc(std::size_t bytes);

/// df_malloc with an explicit status out-param (may be null). Returns
/// nullptr iff *status is set to a non-kOk value.
///
/// Call-site audit (the seven paper apps, src/apps/): every app allocates
/// through df_malloc or TrackedAllocator and treats failure as fatal —
/// correct for a batch kernel, where by the time the tracked heap is
/// exhausted there is nothing to shed. The kNoMem/kOverloaded distinction
/// is consumed one layer up: the serving admission controller
/// (src/serve/admission.h) sizes per-endpoint budgets so handlers never
/// see exhaustion, and serve::Server maps a mid-request kOverloaded to a
/// shed + retry-after rather than a handler crash. App code should keep
/// calling df_malloc; only long-lived callers that can *reject work*
/// should switch to df_try_malloc and branch on the status.
void* df_try_malloc(std::size_t bytes, DfStatus* status = nullptr);

void df_free(void* p);

/// std::allocator adaptor over df_malloc, for containers in benchmarks.
template <typename T>
struct TrackedAllocator {
  using value_type = T;
  TrackedAllocator() = default;
  template <typename U>
  TrackedAllocator(const TrackedAllocator<U>&) {}
  T* allocate(std::size_t n) {
    // The Allocator contract requires a throw on failure: returning nullptr
    // sends std::vector straight into placement-new on address zero.
    if (auto* p = static_cast<T*>(df_malloc(n * sizeof(T)))) return p;
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) { df_free(p); }
  bool operator==(const TrackedAllocator&) const { return true; }
};

// -- race-detector annotations -------------------------------------------------

/// Declares that the calling thread reads/writes [p, p+bytes) of df_malloc'd
/// memory. The happens-before race detector (analyze/race_detector.h) checks
/// the access against its shadow cells and reports when it is unordered with
/// a prior access from another logical thread — on *any* schedule, not just
/// the one that ran. `site` must be a string with static storage duration
/// naming the access site (it is kept by pointer in reports). Compiled to
/// inline no-ops unless the build sets -DDFTH_RACE=ON.
#if DFTH_RACE
void df_read(const void* p, std::size_t bytes, const char* site);
void df_write(const void* p, std::size_t bytes, const char* site);
#else
inline void df_read(const void*, std::size_t, const char*) {}
inline void df_write(const void*, std::size_t, const char*) {}
#endif

// -- simulator annotations -----------------------------------------------------

/// Accrues `ops` units of computation (≈ flops) to the calling thread's
/// virtual clock. No-op on the real engine and outside run().
void annotate_work(std::uint64_t ops);

/// Reports that the calling thread touched the given data blocks; drives the
/// per-processor LRU locality model (volume-rendering granularity study).
void annotate_touch(const std::uint32_t* block_ids, std::size_t count);

// -- thread-specific data (pthread_key_t equivalent) ---------------------------

/// Allocates a new TLS key, valid process-wide.
std::uint32_t tls_create_key();
void tls_set(std::uint32_t key, void* value);
void* tls_get(std::uint32_t key);

}  // namespace dfth
