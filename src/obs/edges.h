// Observer edges: one inline function per event the engines and the sync
// primitives report, handing it to every observer that sees it — tracer
// (events, counts), work/span profiler, race detector, lock graph. A fixed
// set: no virtual interface, no registration. The caller of dfth::run
// installs the first three; validation arms the lock graph.
// With nothing installed an edge is one relaxed load and a branch per
// family; arguments that cost anything (a clock read, a TLS lookup, an
// out-of-line call) may be passed as callables, run only inside that branch.
// The race detector orders every sync release→acquire, uncontended ones
// included; the profiler's span follows only fork, join and wake; the lock
// graph sees only lock holds.
//
// Placement contract for acquire/release (it matters under the
// RealEngine): release-side and fast-path acquire-side calls run under the
// sync object's guard_, so a releaser's clock is recorded before the next
// acquirer reads it; a blocked acquirer calls after Engine::block returns
// true, which the wake protocol orders after the releaser's call. Lock
// order: guard_ → detector mu_ and guard_ → graph mu_; neither takes a
// guard. Replay's gate/commit and the fault probes stay outside: they
// decide ordering.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>

#include "analyze/lock_graph.h"
#include "analyze/race_detector.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/run_stats.h"
#include "threads/tcb.h"

// Forced inline: the uninstalled path is never a call.
#define DFTH_EDGE [[gnu::always_inline]] inline

namespace dfth::obs::edges {

/// A lane with an explicit timestamp (SimEngine's loop: processor clock).
struct At { int lane; std::uint64_t ts_ns; };

/// A dispatch's burden: the pick's scheduler time and the lane's idle gap;
/// `idle` for a pick (not a dive or an inline run), whose gap is traced.
struct DispatchCost { std::uint64_t overhead_ns = 0, gap_ns = 0; bool idle = false; };

/// What an acquire or release holds: none (semaphore, signal, once), a
/// Mutex, or a RwLock side — only holds reach the lock graph.
enum class Hold : std::uint8_t { kNone, kLock, kRead, kWrite };

namespace detail {

/// A value, or the result of calling it.
template <class T>
DFTH_EDGE auto get(const T& v) {
  if constexpr (std::is_invocable_v<const T&>) return v();
  else return v;
}

inline std::uint64_t id(const Tcb* t) { return t ? t->id : 0; }

// f runs with the installed observer, if any.
template <class F>
DFTH_EDGE void traced(const F& f) {
  if (Tracer* tr = tracer()) f(*tr);
}
template <class F>
DFTH_EDGE void profiled(const F& f) {
  if (Profiler* pr = profiler()) f(*pr);
}
template <class F>
DFTH_EDGE void raced(const F& f) {
  if (analyze::RaceDetector* rd = analyze::race_detector()) f(*rd);
}

/// A lane's index: an At's, or an index (or callable).
template <class L>
DFTH_EDGE int index(const L& lane) {
  if constexpr (std::is_same_v<L, At>) return lane.lane;
  else return static_cast<int>(get(lane));
}

/// A trace event; `lane` is an At, or an index (or callable) for now().
template <class L>
DFTH_EDGE void event(Tracer& tr, const L& lane, EvKind kind,
                     std::uint64_t tid, std::uint64_t arg) {
  if constexpr (std::is_same_v<L, At>) {
    tr.emit_at(lane.lane, kind, lane.ts_ns, tid, arg);
  } else {
    tr.emit(index(lane), kind, tid, arg);
  }
}
template <class L>
DFTH_EDGE void event(const L& lane, EvKind kind, std::uint64_t tid,
                     std::uint64_t arg) {
  traced([&](auto& tr) { event(tr, lane, kind, tid, arg); });
}

inline constexpr std::uint64_t kNoWait = std::numeric_limits<std::uint64_t>::max();

/// The wait since `t` became ready at scheduler time `now`; kNoWait without
/// a clock (the real engine picks at now = UINT64_MAX) or for a stale now.
DFTH_EDGE std::uint64_t ready_wait(const Tcb* t, std::uint64_t now) {
  return now == kNoWait || now < t->ready_at_ns ? kNoWait : now - t->ready_at_ns;
}

}  // namespace detail

/// Installs one run's observers, once its engine exists: the lock graph if
/// validated, and the race detector (`simulated`: one kernel thread runs it
/// all), tracer and profiler if set.
inline void begin_run(Tracer* tracer, Profiler* profiler,
                      analyze::RaceDetector* race, bool validated,
                      bool simulated, int lanes,
                      std::function<std::uint64_t()> clock) {
  analyze::detail::g_active_lock_graph.store(
      validated ? &analyze::LockGraph::instance() : nullptr);
  analyze::detail::g_race.store(race);
  // Fiber ids restart per run: no happens-before state may leak across.
  detail::raced([&](auto& rd) { rd.begin_run(/*order_tags=*/simulated); });
  obs::detail::g_tracer.store(tracer);
  detail::traced([&](auto& tr) { tr.begin_run(lanes, std::move(clock)); });
  obs::detail::g_profiler.store(profiler);
  detail::profiled([](auto& pr) { pr.begin_run(); });
}

/// Removes them once every thread has exited; closes the trace session's
/// counts with `stats`' and merges the profile.
inline void end_run(RunStats* stats) {
  detail::traced([&](auto& tr) { tr.end_run(*stats); });
  obs::detail::g_tracer.store(nullptr);
  detail::profiled([&](auto& pr) {
    pr.end_run(stats->elapsed_us, stats->nprocs);
    stats->profile = pr.stats();
  });
  obs::detail::g_profiler.store(nullptr);
  analyze::detail::g_race.store(nullptr);
  analyze::detail::g_active_lock_graph.store(nullptr);
}

// -- threads ---------------------------------------------------------------

/// Fork edge parent → child: Fork, or DummySpawn for a dummy (main, whose
/// parent is null, has no event). The child inherits the parent's span plus
/// `offset_ns` (or callable), the parent's charge the profiler has not seen.
template <class L, class O>
DFTH_EDGE void fork(const L& lane, Tcb* parent, Tcb* child,
                    const O& offset_ns) {
  detail::raced([&](auto& rd) { rd.on_thread_start(child, parent); });
  if (!child->is_main) {
    detail::event(lane, child->is_dummy ? EvKind::DummySpawn : EvKind::Fork,
                  detail::id(parent), child->id);
  }
  detail::profiled([&](auto& pr) {
    pr.thread_start(child->id, detail::id(parent), detail::get(offset_ns),
                    child->site_file, child->site_line);
  });
}

/// `child`'s body runs inline, on `parent`'s Tcb: the race detector checks
/// it as the child. Called at the body's start and at its end.
DFTH_EDGE void inline_body(Tcb* parent, Tcb* child) {
  detail::raced([&](auto& rd) { rd.swap_inline(parent, child); });
}

/// The observed cost (or callable) of creating `child`: burden.
template <class N>
DFTH_EDGE void fork_cost(Tcb* child, const N& ns) {
  detail::profiled([&](auto& pr) { pr.fork_cost(child->id, detail::get(ns)); });
}

/// A thread made ready on `proc` (Engine::ready, the policies' one entry).
DFTH_EDGE void ready(int proc) {
  detail::traced([&](auto& tr) { tr.add(proc, Counter::ReadyPushes); });
}

/// `proc` picked or stole `t` at scheduler time `now` (kInf: no clock).
DFTH_EDGE void pick(int proc, const Tcb* t, std::uint64_t now) {
  detail::traced([&](auto& tr) {
    tr.add(proc, Counter::ReadyPops);
    const std::uint64_t wait = detail::ready_wait(t, now);
    if (wait != detail::kNoWait) tr.record(proc, Hist::ReadyWaitNs, wait);
  });
}

/// `t` starts a slice; `cost` (a DispatchCost or callable, run once) is its
/// burden — none for a child with no stack, run on its parent's.
template <class L, class C>
DFTH_EDGE void dispatch(const L& lane, Tcb* t, const C& cost) {
  Tracer* tr = tracer();
  Profiler* pr = profiler();
  if (!tr && !pr) return;
  const DispatchCost c = detail::get(cost);
  if (tr) {
    detail::event(*tr, lane, EvKind::Dispatch, t->id, t->dispatches);
    if (c.idle) tr->record(detail::index(lane), Hist::DispatchGapNs, c.gap_ns);
  }
  if (pr) pr->dispatch(t->id, c.overhead_ns, c.gap_ns);
}

/// Lane-side scheduler time for `tid` (0: no fiber owns it).
DFTH_EDGE void overhead(std::uint64_t tid, std::uint64_t ns) {
  detail::profiled([&](auto& pr) { pr.overhead(tid, ns); });
}

/// Runnable `t` leaves its lane for `reason`, at lane-side `overhead_ns`.
template <class L>
DFTH_EDGE void preempt(const L& lane, Tcb* t, std::uint64_t reason,
                       std::uint64_t overhead_ns = 0) {
  if (overhead_ns != 0) overhead(t->id, overhead_ns);
  detail::event(lane, EvKind::Preempt, t->id, reason);
}

/// A df_malloc of `bytes` drove `t`'s memory quota to zero.
template <class L>
DFTH_EDGE void quota_exhaust(const L& lane, Tcb* t, std::size_t bytes) {
  detail::event(lane, EvKind::QuotaExhaust, t->id, bytes);
}

/// `t` blocks on a join or a sync object.
template <class L>
DFTH_EDGE void block(const L& lane, Tcb* t) {
  detail::event(lane, EvKind::Block, t->id, 0);
}

/// Wake edge waker → wakee, `offset_ns` as in fork. A null waker (a timed
/// wait's deadline, an engine-external caller) carries no span. A finished
/// waker is an exit waking its joiner: the race detector's join edge.
template <class L, class O>
DFTH_EDGE void wake(const L& lane, Tcb* waker, Tcb* wakee, const O& offset_ns) {
  if (waker && waker->finished) {
    detail::raced([&](auto& rd) { rd.on_join(wakee, waker); });
  }
  detail::event(lane, EvKind::Wake, wakee->id, detail::id(waker));
  detail::profiled([&](auto& pr) {
    pr.wake_edge(detail::id(waker), wakee->id, detail::get(offset_ns));
  });
}

/// `t` exits; `final_work_ns` (or callable) is an uncharged last slice.
template <class L, class W = std::uint64_t>
DFTH_EDGE void exit(const L& lane, Tcb* t, const W& final_work_ns = 0) {
  detail::event(lane, EvKind::Exit, t->id, 0);
  detail::profiled([&](auto& pr) {
    const std::uint64_t ns = detail::get(final_work_ns);
    if (ns != 0) pr.work(t->id, ns);
    pr.exit_fiber(t->id, 0);
  });
}

/// `joiner` joins `child`, once the outcome is decided: a finished child
/// gives the edge here (`offset_ns` as in fork), another at its exit's wake.
template <class L, class O>
DFTH_EDGE void join(const L& lane, Tcb* joiner, Tcb* child,
                    const O& offset_ns) {
  detail::event(lane, EvKind::Join, detail::id(joiner), child->id);
  if (!child->finished) return;
  if (joiner) detail::raced([&](auto& rd) { rd.on_join(joiner, child); });
  detail::profiled([&](auto& pr) {
    pr.join_edge(detail::id(joiner), child->id, detail::get(offset_ns));
  });
}

/// `ns` (or callable) of pure fiber time charged to `t`.
template <class N>
DFTH_EDGE void work(Tcb* t, const N& ns) {
  detail::profiled([&](auto& pr) { pr.work(t->id, detail::get(ns)); });
}

/// `proc` steals `t` from `victim` at scheduler time `now` (kInf: no
/// clock); the wait since `t` became ready burdens its critical path.
DFTH_EDGE void steal(int proc, Tcb* t, std::uint64_t victim,
                     std::uint64_t now) {
  const std::uint64_t wait = detail::ready_wait(t, now);
  detail::traced([&](auto& tr) {
    detail::event(tr, proc, EvKind::Steal, t->id, victim);
    if (wait != detail::kNoWait) tr.record(proc, Hist::StealLatencyNs, wait);
  });
  if (wait == detail::kNoWait) return;
  detail::profiled([&](auto& pr) { pr.steal(t->id, wait); });
}

// -- memory ----------------------------------------------------------------

/// A df_malloc or df_free of `bytes` by `t` (or callable): counted always,
/// an Alloc/Free event from the tracer's threshold up.
template <class L, class T>
DFTH_EDGE void heap(const L& lane, const T& t, std::size_t bytes, bool freed) {
  detail::traced([&](auto& tr) {
    const int l = detail::index(lane);
    tr.add(l, freed ? Counter::Frees : Counter::Allocs);
    tr.add(l, freed ? Counter::FreeBytes : Counter::AllocBytes, bytes);
    if (bytes < tr.config().alloc_event_min_bytes) return;
    detail::event(tr, l, freed ? EvKind::Free : EvKind::Alloc,
                  detail::id(detail::get(t)), bytes);
  });
}

/// [p, p+bytes) leaves its owner — a df_free'd block, a retired stack —
/// and may be reused: the race detector drops its shadow.
DFTH_EDGE void retire(const void* p, std::size_t bytes) {
  detail::raced([&](auto& rd) { rd.on_retire(p, bytes); });
}

/// A fiber stack of `bytes` for `t`: freshly mapped, or reused.
template <class L>
DFTH_EDGE void stack(const L& lane, Tcb* t, std::size_t bytes, bool fresh) {
  detail::event(lane, fresh ? EvKind::StackFresh : EvKind::StackReuse,
                detail::id(t), bytes);
}

// -- synchronization -------------------------------------------------------

/// `t` (or callable) acquires `obj`: the race detector's release→acquire
/// edge, and for a lock hold the lock graph's order edges.
template <class T>
DFTH_EDGE void acquire(const T& t, const void* obj, Hold hold = Hold::kNone) {
  detail::raced([&](auto& rd) {
    Tcb* self = detail::get(t);
    if (!self) return;
    if (hold == Hold::kRead) return rd.on_rd_acquire(self, obj);
    if (hold == Hold::kWrite) return rd.on_wr_acquire(self, obj);
    rd.on_acquire(self, obj);
  });
  if (hold == Hold::kNone) return;
  if (analyze::LockGraph* lg = analyze::active_lock_graph()) {
    if (hold == Hold::kRead) return lg->on_acquire_shared(detail::get(t), obj);
    lg->on_acquire(detail::get(t), obj);
  }
}

/// `t` (or callable) releases `obj`: the race detector records its clock
/// for the next acquirer; a lock hold leaves the lock graph's held set.
template <class T>
DFTH_EDGE void release(const T& t, const void* obj, Hold hold = Hold::kNone) {
  detail::raced([&](auto& rd) {
    if (hold == Hold::kRead) return rd.on_rd_release(detail::get(t), obj);
    rd.on_release(detail::get(t), obj);
  });
  if (hold == Hold::kNone) return;
  if (analyze::LockGraph* lg = analyze::active_lock_graph()) {
    lg->on_release(detail::get(t), obj);
  }
}

/// `t` arrives at barrier generation `gen`; the last arrival seals it as an
/// all-to-all edge and leaves at once, the others leave when woken.
DFTH_EDGE void barrier_arrive(Tcb* t, const void* obj, std::uint64_t gen,
                              bool last) {
  detail::raced([&](auto& rd) {
    rd.on_barrier_arrive(t, obj, gen, last);
    if (last) rd.on_barrier_leave(t, obj, gen);
  });
}

DFTH_EDGE void barrier_leave(Tcb* t, const void* obj, std::uint64_t gen) {
  detail::raced([&](auto& rd) { rd.on_barrier_leave(t, obj, gen); });
}

}  // namespace dfth::obs::edges

#undef DFTH_EDGE
