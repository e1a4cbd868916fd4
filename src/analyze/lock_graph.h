// Lockset-based deadlock detection (the classic lock-order-graph algorithm):
// every thread tracks the set of locks it holds — exclusive Mutex/RwLock
// write acquisitions and RwLock read acquisitions alike (Tcb::held_locks);
// acquiring L while holding H records the order edge H → L in a global
// graph. A cycle in that graph means two code paths take the same locks in
// opposite orders — a *potential* deadlock, reported even when the
// interleaving that would actually deadlock never happened in this run.
// That is the point: the AsyncDF scheduler serializes most interleavings
// (especially under the deterministic sim engine), so a wait-for-graph
// checker would almost never trip; the order graph catches the hazard on
// any schedule that merely exercises both paths.
//
// The graph is cumulative across runs (edges are never removed on
// release) and keyed by lock address. runtime/sync.cpp reports through
// obs::edges::acquire/release (obs/edges.h), under the lock object's guard,
// to active_lock_graph(), which points at instance() only for the duration
// of a run started with the validation switch on (analyze/validation.h);
// any other run pays one load and a branch per lock operation. The graph
// never takes a lock object's guard. The class can
// also be instantiated directly, so unit tests drive it without an engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace dfth {

struct Tcb;

namespace analyze {

class LockGraph;

namespace detail {
/// Set by dfth::run for the duration of one run; nullptr outside validated
/// runs. Constant while any fiber of the run executes, so a fiber's acquire
/// and its release always reach the same graph (or neither does).
inline std::atomic<LockGraph*> g_active_lock_graph{nullptr};
}  // namespace detail

/// The graph the sync primitives report to, or nullptr when this run is
/// not validated.
inline LockGraph* active_lock_graph() {
  return detail::g_active_lock_graph.load(std::memory_order_relaxed);
}

class LockGraph {
 public:
  LockGraph() = default;  // instantiable for unit tests
  LockGraph(const LockGraph&) = delete;
  LockGraph& operator=(const LockGraph&) = delete;

  /// Process-wide instance the sync-primitive hooks report to.
  static LockGraph& instance();

  /// Records that `t` acquired exclusive lock `lock`: appends it to
  /// t->held_locks and adds order edges from every lock already held. A new
  /// edge that closes a cycle fires a report (thread id, lock addresses,
  /// held set) and, when abort_on_cycle (the default), aborts the process
  /// DFTH_CHECK-style.
  void on_acquire(Tcb* t, const void* lock);

  /// Records that `t` acquired `lock` in shared (read) mode. Shared
  /// acquisitions participate in the order graph exactly like exclusive
  /// ones: under a writer-preferring RwLock a held read lock blocks the
  /// next writer, so reader/writer ABBA inversions deadlock just the same
  /// — two threads each holding a read lock and requesting the other's
  /// write side can never proceed.
  void on_acquire_shared(Tcb* t, const void* lock);

  /// Records that `t` released `lock` (either mode). Order edges persist —
  /// the algorithm is about acquisition history, not current ownership.
  void on_release(Tcb* t, const void* lock);

  void set_abort_on_cycle(bool abort_on_cycle);
  std::uint64_t cycles_detected() const;
  /// Order edges recorded so far.
  std::size_t edge_count() const;

  /// Drops all edges and counters (tests; locks held by live threads stay
  /// in their Tcbs).
  void clear();

 private:
  /// True when `to` is reachable from `from` along order edges. mu_ held.
  bool reachable(const void* from, const void* to) const;

  mutable std::mutex mu_;
  std::unordered_map<const void*, std::unordered_set<const void*>> edges_;
  std::uint64_t cycles_ = 0;
  bool abort_on_cycle_ = true;
};

}  // namespace analyze
}  // namespace dfth
