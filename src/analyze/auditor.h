// Scheduler-invariant validator. While the validation switch is on
// (analyze/validation.h), make_scheduler wraps every policy in an
// AuditedScheduler decorator whose InvariantAuditor re-checks, on every hook
// call, the contract documented in core/scheduler.h plus the
// AsyncDF-specific properties from the paper (§4 item 2):
//
//  generic (any policy):
//   * register_thread is called exactly once per thread, with a registered
//     (or null) parent, before the child appears in any other hook;
//   * on_ready is only called for registered threads in state Ready;
//   * pick_next only returns a registered Ready thread with
//     ready_at_ns <= now.
//
//  AsyncDF:
//   * a forked child lands to the immediate left of its parent in the
//     serial-order list (checked via serial_before);
//   * the parent is preempted so the child runs first (the policy's dives()
//     query, which the engine asks before it registers the child);
//   * the order list's tag-monotonicity invariant holds after every step;
//   * pick_next returns the leftmost ready thread of the highest non-empty
//     priority level;
//   * between two dispatches a thread df_malloc's at most K bytes (the
//     engine must quota-preempt it before it allocates past K);
//   * an allocation of m > K bytes is preceded by δ = ceil(m/K) dummy
//     threads (df_malloc's binary dummy tree, credited at registration).
//
// The scheduler-side hooks run under a lock domain's lock, and processors
// in different domains call them at the same time, so the auditor keeps
// its registered set behind a lock of its own (validated runs only). The
// allocation hook runs in fiber context and touches only the allocating
// thread's own Tcb fields plus atomic counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "core/scheduler.h"

namespace dfth::analyze {

class InvariantAuditor {
 public:
  /// When true (default), any violation aborts DFTH_CHECK-style; tests turn
  /// it off and assert on violations() instead.
  void set_abort_on_violation(bool abort_on_violation) {
    abort_on_violation_.store(abort_on_violation, std::memory_order_relaxed);
  }

  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  /// Hook invocations audited so far (tests use this to prove the auditor
  /// actually observed a run).
  std::uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }

  // -- hooks (called by AuditedScheduler / df_malloc) ------------------------
  void on_register(const Scheduler& inner, Tcb* parent, Tcb* child, bool dives);
  /// Checked before the policy sees the call; false when it is invalid.
  bool on_ready(const Scheduler& inner, Tcb* t);
  void on_pick(const Scheduler& inner, Tcb* t, std::uint64_t now);
  void on_unregister(const Scheduler& inner, Tcb* t);
  /// Fiber-context hook from df_malloc; quota == 0 disables quota checks.
  void on_alloc(Tcb* t, std::size_t bytes, std::size_t quota);

  // -- resilience transitions (src/resil/) -----------------------------------
  // Engine degradation paths that are legal by construction but have
  // auditable preconditions.

  /// A child whose stack/context acquisition failed is being run inline on
  /// `parent`'s stack. Legal because inline execution *is* the serial
  /// depth-first order — but only if the child was never registered with
  /// the scheduler (a registered child would additionally occupy an
  /// order-list slot the scheduler believes it can dispatch). Called
  /// where the engine decides the inline run: in Real, a section of the
  /// spawning worker's domain, or the cold lock for any other caller.
  void on_inline_run(Tcb* parent, Tcb* child);

  /// Heap exhaustion preempted `t` AsyncDF-style. The re-dispatch grants a
  /// fresh allocation window, exactly as a quota preemption does. Fiber
  /// context; touches only t's own audit fields.
  void on_oom_preempt(Tcb* t);

 private:
  void check_registered(const Tcb* t, const char* hook);
  void check_asyncdf_step(const Scheduler& inner);
  void violation(const char* what, const Tcb* t);

  std::mutex mu_;  ///< guards live_
  std::unordered_set<const Tcb*> live_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<bool> abort_on_violation_{true};
};

/// Decorator installed by make_scheduler while the validation switch is on.
/// Forwards every Scheduler call to the wrapped policy and audits the
/// result. underlying() exposes the wrapped policy so engines can still
/// dynamic_cast for policy-specific stats.
class AuditedScheduler final : public Scheduler {
 public:
  explicit AuditedScheduler(std::unique_ptr<Scheduler> inner);
  ~AuditedScheduler() override;

  SchedKind kind() const override { return inner_->kind(); }
  bool needs_quota() const override { return inner_->needs_quota(); }
  Scheduler* underlying() override { return inner_->underlying(); }

  bool dives(const Tcb* parent, const Tcb* child) const override {
    return inner_->dives(parent, child);
  }
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return inner_->ready_count(); }
  int domains() const override { return inner_->domains(); }
  int lock_domain(int proc) const override { return inner_->lock_domain(proc); }
  int ready_domain(const Tcb* t, int proc) const override {
    return inner_->ready_domain(t, proc);
  }
  std::size_t ready_in(int domain) const override { return inner_->ready_in(domain); }
  int steal_start(int proc) override { return inner_->steal_start(proc); }
  Tcb* steal(int proc, int victim, std::uint64_t now,
             std::uint64_t* earliest) override;
  bool keeps_home() const override { return inner_->keeps_home(); }
  void rehome(Tcb* t, int proc) override { inner_->rehome(t, proc); }

  InvariantAuditor& auditor() { return auditor_; }

 private:
  std::unique_ptr<Scheduler> inner_;
  InvariantAuditor auditor_;
};

/// The auditor of the most recently constructed AuditedScheduler (the
/// engine's, for the duration of a run), or nullptr. df_malloc routes its
/// allocation hook through this.
InvariantAuditor* active_auditor();

}  // namespace dfth::analyze
