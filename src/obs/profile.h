// Work/span parallelism profiler — measures *available* parallelism, not
// just achieved time.
//
// The paper's claim is that lightweight threads expose the parallelism of
// dynamic, irregular programs; this layer is the instrument that says how
// much parallelism a run actually had. Following the Cilkview/Cilkprof
// lineage it computes, online, over the fork/join DAG:
//
//   work  T1     — the sum of every pure fiber charge (compute, tracked
//                  allocation, sync operations, join bookkeeping): what one
//                  processor would need with zero scheduling.
//   span  T_inf  — the longest dependency chain of those charges. Each
//                  fiber carries the span of its history; a fork hands the
//                  parent's current span to the child, a join takes the max
//                  over joiner and child, a wake takes the max over waker
//                  and wakee (the fork, join and wake edges of
//                  obs/edges.h; an uncontended sync acquire, which the race
//                  detector still orders, carries no span edge). The segment
//                  count D of that chain and the fork depth d ride along:
//                  the paper's space bound S1 + O(p·K·D) and its "d
//                  simultaneously active threads" are stated in them.
//   burdened span — span plus per-edge scheduling burden: every dispatch is
//                  charged its observed scheduler-lock + context-switch cost
//                  and the lane's idle gap before it, every fork its
//                  creation cost, every steal its observed latency. This is
//                  the Cilkview "burdened" curve: what the critical path
//                  costs on a real scheduler rather than an ideal one.
//   overhead     — all lane-side scheduler time (dispatch, fork, exit,
//                  preempt, lock contention). Together with work it accounts
//                  for every non-idle lane nanosecond, which SimEngine makes
//                  an exact, testable invariant:
//                      work + overhead == nprocs * elapsed - idle.
//
// Predictions (see ProfileStats in runtime/run_stats.h):
//   lower bound  max((work+overhead)/p, span)      — both terms are floors
//   upper bound  (work+overhead)/p + burdened_span — Brent with burden
// Measured T_p must land between them; tests/obs/profile_test.cpp holds the
// simulator to that bracket.
//
// Attribution: every fiber is keyed by its *spawn-site stack* (the chain of
// df_create/dfth::spawn call sites that created it, captured via
// std::source_location). Two outputs per run:
//   * critical-path attribution — which spawn sites lie on the span and for
//     how many ns (a persistent cons-list ledger rides along the span
//     propagation, so this is exact: the segments sum to span_ns);
//   * collapsed stacks — total work per spawn-site stack, in the
//     "semicolon-stack value" format speedscope and flamegraph.pl load.
//
// Cost: hooks come through obs/edges.h; with no Profiler installed a hook
// is one relaxed load of profiler() and a branch. Recording takes a spin
// lock: exactness over the tracer's lock-freedom, fine at fork/join/dispatch
// frequency.
//
// Clock caveat (RealEngine): charges are steady-clock slice durations
// measured on different kernel threads, so span edges mix timestamps from
// different cores. The identities above hold only as tightly as the host's
// clock synchronization; SimEngine's virtual clock is exact. DESIGN.md §10.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/run_stats.h"
#include "util/spinlock.h"

namespace dfth::obs {

/// One segment of critical-path attribution: the spawn-site stack of the
/// fiber(s) that executed it, and how many span nanoseconds they carried.
struct CritSegment {
  std::string stack;    ///< "main;matmul.cpp:57;matmul.cpp:57"
  std::uint64_t ns = 0;
};

/// One collapsed-stack line: total work charged to fibers with this
/// spawn-site stack. `stack + " " + ns` is the folded format flamegraph.pl
/// and speedscope consume.
struct CollapsedLine {
  std::string stack;
  std::uint64_t work_ns = 0;
};

/// A profiling session. Caller-owned (RuntimeOptions::profiler points at
/// one); dfth::run installs it for the duration of the run, the engines feed
/// it through obs/edges.h, and its ProfileStats are merged into RunStats.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // -- engine-side lifecycle --------------------------------------------------
  /// Clears previous results and re-arms the accumulators.
  void begin_run();
  /// Folds still-live fibers into the span, freezes ProfileStats and
  /// remembers the run's measured time for the what-if report.
  void end_run(double elapsed_us, int nprocs);

  // -- hook backend (called through obs/edges.h) ------------------------------
  /// Registers fiber `child` spawned by `parent` at `file:line`; the child
  /// inherits the parent's span as of the fork instant. `offset_ns` is work
  /// the parent has accrued but not yet charged through work() (SimEngine
  /// pending charges / RealEngine partial slice), so edges are exact.
  /// parent == 0 registers a root with no inherited history.
  void thread_start(std::uint64_t child, std::uint64_t parent,
                    std::uint64_t offset_ns, const char* file, int line);
  /// Charges `ns` of pure fiber time: work, span and burden all advance.
  void work(std::uint64_t tid, std::uint64_t ns);
  /// Charges `ns` of lane-side scheduler time not tied to a dispatch edge
  /// (exit bookkeeping, preempt switch, sleeper fire, lock contention).
  void overhead(std::uint64_t tid, std::uint64_t ns);
  /// A dispatch of `tid`: `overhead_ns` (lock + context switch) counts as
  /// scheduler overhead and burdens the fiber; `gap_ns` (lane idle time
  /// before the dispatch) burdens the fiber only.
  void dispatch(std::uint64_t tid, std::uint64_t overhead_ns,
                std::uint64_t gap_ns);
  /// Fork cost of creating `child` (create + stack): overhead + child burden.
  void fork_cost(std::uint64_t child, std::uint64_t ns);
  /// Join edge: joiner's span becomes max(its own, the joined child's final
  /// span). `offset_ns` is the joiner's uncharged work, as in thread_start.
  void join_edge(std::uint64_t joiner, std::uint64_t child,
                 std::uint64_t offset_ns);
  /// Wake edge (sync-object happens-before): wakee's span becomes
  /// max(its own, the waker's current span). `offset_ns` is the waker's
  /// uncharged work.
  void wake_edge(std::uint64_t waker, std::uint64_t wakee,
                 std::uint64_t offset_ns);
  /// A steal of `tid`: burden the fiber with the observed steal latency.
  void steal(std::uint64_t tid, std::uint64_t burden_ns);
  /// Fiber `tid` finished; its span is final and competes for the run span.
  void exit_fiber(std::uint64_t tid, std::uint64_t offset_ns);

  // -- results (valid after end_run) -----------------------------------------
  const ProfileStats& stats() const { return stats_; }
  double elapsed_us() const { return elapsed_us_; }
  int nprocs() const { return nprocs_; }
  /// Critical-path attribution, largest segment first. Segments sum to
  /// exactly stats().span_ns.
  std::vector<CritSegment> critical_path() const;
  /// Collapsed work-per-spawn-stack lines (folded flamegraph input),
  /// largest first. Lines sum to exactly stats().work_ns.
  std::vector<CollapsedLine> collapsed() const;

 private:
  /// Cons-list ledger node: `ns` of span carried at spawn-stack `node`.
  /// Nodes are immutable once shared (fork/join/wake seal the head), so the
  /// winning path at a join can be adopted by pointer.
  struct Ledger {
    std::uint32_t node;
    std::uint64_t ns;
    Ledger* prev;
  };
  struct Fiber {
    bool seen = false;
    bool finished = false;
    std::uint32_t node = 0;        ///< spawn-stack trie node
    std::uint32_t depth = 0;       ///< fork nesting (root = 1)
    std::uint32_t segments = 0;    ///< segments on the span path so far
    std::uint64_t span_ns = 0;
    std::uint64_t burden_ns = 0;   ///< span + scheduling burden
    /// Uncharged work already materialized into span/ledger by an edge's
    /// offset_ns; the next work() deducts it so nothing double-counts.
    std::uint64_t prepaid_ns = 0;
    Ledger* head = nullptr;
    bool head_owned = false;       ///< may mutate head->ns in place
  };
  /// Spawn-site stack trie: node 0 is the root ("main"); a child per
  /// distinct (parent, spawn site).
  struct Node {
    std::uint32_t parent = 0;
    std::uint32_t site = 0;
    std::uint64_t self_work_ns = 0;  ///< work charged to fibers at this stack
  };
  struct Site {
    std::string file;
    int line = 0;
  };

  Fiber& fiber(std::uint64_t tid);
  std::uint32_t intern_site(const char* file, int line);
  std::uint32_t trie_child(std::uint32_t parent, std::uint32_t site);
  std::string stack_string(std::uint32_t node) const;
  void accrue_ledger(Fiber& f, std::uint64_t ns);
  /// Materializes a fiber's uncharged-at-edge work (`offset_ns`) as real
  /// charges — span, burden, work and ledger advance together, so adopted
  /// ledgers always sum to the span they carry. Idempotent per offset: only
  /// the delta beyond what is already prepaid lands.
  void flush_offset(Fiber& f, std::uint64_t offset_ns);
  void seal(Fiber& f) { f.head_owned = false; }
  /// Join/wake edge: `to` takes max(its span, `from`'s span); a longer
  /// `from` path is adopted with its ledger and one more segment.
  void adopt_span(std::uint64_t to_tid, std::uint64_t from_tid);
  /// A final (exited or end-of-run) fiber span competes for the run span.
  void compete_for_span(const Fiber& f);

  mutable SpinLock mu_;
  std::vector<Fiber> fibers_;
  std::vector<Site> sites_;
  std::unordered_map<std::string, std::uint32_t> site_ids_;
  std::vector<Node> trie_;
  std::unordered_map<std::uint64_t, std::uint32_t> trie_children_;
  std::deque<Ledger> arena_;

  std::uint64_t work_ns_ = 0;
  std::uint64_t overhead_ns_ = 0;
  std::uint64_t fiber_count_ = 0;
  std::uint64_t max_span_ns_ = 0;
  std::uint64_t max_burden_ns_ = 0;
  std::uint32_t max_depth_ = 0;
  std::uint32_t crit_segments_ = 0;  ///< segments of the span-winning fiber
  Ledger* crit_head_ = nullptr;  ///< ledger of the span-winning fiber

  ProfileStats stats_;
  double elapsed_us_ = 0;
  int nprocs_ = 0;
};

namespace detail {
/// Set by dfth::run (obs/edges.h) for the duration of one run.
inline std::atomic<Profiler*> g_profiler{nullptr};
}  // namespace detail

/// The active session, or nullptr when none is installed.
inline Profiler* profiler() {
  return detail::g_profiler.load(std::memory_order_relaxed);
}

}  // namespace dfth::obs
