// Scheduler policy interface.
//
// A Scheduler decides *which* ready thread a processor runs next and *where*
// newly runnable threads are placed — exactly the component of the Solaris
// Pthreads library the paper modifies. Engines (runtime/) own all
// synchronization, one lock per *lock domain*. A single-list policy (FIFO,
// LIFO, AsyncDF, DFDeques) is one domain: every method runs under the one
// scheduler lock, the paper's serialized global queue (§6). Work stealing is
// one domain per processor and the clustered scheduler one per cluster, so
// processors in different domains schedule without serializing on each
// other.
//
// Domain contract:
//  * Every method but steal() touches only the calling processor's domain,
//    lock_domain(proc), and runs under that domain's lock. on_ready(t, proc)
//    runs under ready_domain(t, proc): the domain t's ready entry lands in.
//  * steal(proc, victim) is the one cross-domain entry point. It runs under
//    the *victim's* lock and moves a ready thread out of the victim domain.
//    The thief first calls steal_start(proc) under its own lock, and the
//    victims then follow in increasing order (mod domains()) from there, so
//    the policy chooses the order. A policy whose threads keep a home
//    domain (keeps_home()) then gets rehome(t, proc) under the thief's own
//    lock before t runs. No caller holds two domain locks at once.
//  * ready_in(domain) must be safe to read without the lock when
//    domains() > 1: engines read other domains' counts as a steal hint.
//  * Hooks see each thread's events in the order they happened, not at the
//    instant they happened. With one domain the real engine posts a
//    spawn's registration, a fork dive's parent requeue and a fiber's wake
//    to a per-lane list without the lock, and applies them at the start of
//    the domain's next section (DESIGN.md §2); a policy sees only the
//    applied state. With a replay session installed, every such event is
//    applied at once, in its poster's own gated section.
//
// Lifecycle contract, in terms of thread states (threads/tcb.h):
//  * dives(parent, child): a const query, answered before the child is
//    registered and callable without the domain lock. True if the policy
//    wants the child to run IMMEDIATELY on the spawning processor,
//    preempting the parent (AsyncDF and work-first work stealing); the
//    engine then marks the parent Ready and calls on_ready(parent) — the
//    child never visits the ready set. False for FIFO/LIFO: the engine calls
//    on_ready(child) and the parent keeps running.
//  * register_thread(parent, child): child enters the system (placeholder
//    creation for AsyncDF). Called once per thread, before any other hook
//    sees it.
//  * on_ready(t, proc): t became runnable (spawned-not-run, unblocked,
//    yielded, or quota-preempted) — enter the ready structure.
//  * pick_next(proc, now, earliest): remove and return the policy's choice
//    among the ready threads of proc's own domain with ready_at_ns <= now
//    (virtual-time causality for the simulator; the real engine passes
//    now = UINT64_MAX). When nothing is eligible, returns nullptr and stores
//    the smallest ready_at_ns of any ready thread it saw into *earliest
//    (UINT64_MAX if none). steal() lowers *earliest the same way without
//    resetting it.
//  * unregister_thread(t): t exited — drop its placeholder.
//
// Priorities: levels are strictly ordered; within a level the policy
// applies. (The paper proposes exactly this: their scheduler implements
// SCHED_OTHER and coexists with the prioritized SCHED_FIFO/SCHED_RR.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "threads/tcb.h"

namespace dfth {

enum class SchedKind {
  Fifo,         ///< stock Solaris SCHED_OTHER: global FIFO queue (breadth-first)
  Lifo,         ///< §4 item 1: global LIFO stack (≈ depth-first)
  AsyncDf,      ///< §4 item 2: the paper's space-efficient scheduler
  WorkSteal,    ///< Cilk-style per-processor deques (baseline from §2.1)
  ClusteredAdf, ///< §6 future work: per-SMP AsyncDF queues with migration
  DfDeques,     ///< §5.3 "current work": locality-aware ordered deques
};

const char* to_string(SchedKind kind);
SchedKind sched_kind_from_string(const std::string& name);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual SchedKind kind() const = 0;

  /// True for policies that bound memory with a per-scheduling quota
  /// (AsyncDF). The engine then resets t->quota on each dispatch and
  /// preempts on exhaustion; df_malloc inserts dummy threads for
  /// allocations larger than the quota.
  virtual bool needs_quota() const { return false; }

  virtual bool dives(const Tcb* parent, const Tcb* child) const {
    (void)parent;
    (void)child;
    return false;
  }
  virtual void register_thread(Tcb* parent, Tcb* child) = 0;
  virtual void on_ready(Tcb* t, int proc) = 0;
  virtual Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) = 0;
  virtual void unregister_thread(Tcb* t) = 0;

  /// Number of threads currently in the ready structure (stats/tests).
  virtual std::size_t ready_count() const = 0;

  // -- lock domains (see the contract above) ---------------------------------

  /// Number of lock domains; every domain index lies in [0, domains()).
  virtual int domains() const { return 1; }

  /// The domain of a processor's own queue operations. Single-list policies
  /// all share domain 0 (the paper's serialized global lock, §6).
  virtual int lock_domain(int proc) const {
    (void)proc;
    return 0;
  }

  /// True when every thread keeps a home domain (the clustered scheduler):
  /// on_ready(t) lands in t's home, which can differ from the caller's own
  /// domain, and a stolen thread must be rehome()d into the thief's domain
  /// before it runs. The real engine then readies an exited fiber's joiner
  /// in a section of its own instead of folding it into the exit's section.
  virtual bool keeps_home() const { return false; }

  /// The domain on_ready(t, proc) inserts into.
  virtual int ready_domain(const Tcb* t, int proc) const {
    (void)t;
    return lock_domain(proc);
  }

  /// Ready threads in one domain.
  virtual std::size_t ready_in(int domain) const {
    (void)domain;
    return ready_count();
  }

  /// First victim domain of proc's next steal round, under proc's own lock
  /// (work stealing draws it from proc's victim RNG).
  virtual int steal_start(int proc) { return (lock_domain(proc) + 1) % domains(); }

  /// Under the victim domain's lock: removes and returns an eligible ready
  /// thread of `victim` for `proc` to run, or nullptr.
  virtual Tcb* steal(int proc, int victim, std::uint64_t now,
                     std::uint64_t* earliest) {
    (void)proc;
    (void)victim;
    (void)now;
    (void)earliest;
    return nullptr;
  }

  /// Under proc's own lock, after steal() of a keeps_home() policy: t joins
  /// proc's domain.
  virtual void rehome(Tcb* t, int proc) {
    (void)t;
    (void)proc;
  }

  /// The concrete policy object, unwrapping any validation decorator
  /// (validated runs wrap every policy in analyze::AuditedScheduler);
  /// engines dynamic_cast this for policy-specific stats.
  virtual Scheduler* underlying() { return this; }
};

/// Factory. `nprocs`/`seed` matter only to work stealing (deque count and
/// victim selection); `cluster_size` only to the clustered scheduler. With
/// the validation switch on (analyze/validation.h) the policy comes wrapped
/// in analyze::AuditedScheduler.
std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, int nprocs,
                                          std::uint64_t seed,
                                          int cluster_size = 4);

}  // namespace dfth
