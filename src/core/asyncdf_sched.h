// The paper's contribution (§4 item 2): a space-efficient scheduler that
// keeps every live thread — ready, blocked or executing — in its *serial,
// depth-first execution order* and always dispatches the leftmost ready
// thread. It is a variation of the AsyncDF algorithm [Narlikar & Blelloch
// 1998], which bounds live space by S1 + O(p·K·D).
//
// Mechanics reproduced from the paper:
//  * There is an entry (placeholder) in the ordered list for every thread
//    that has been created but has not yet exited; blocked and executing
//    threads keep their entries, which pin their position.
//  * When a parent forks a child, the parent is preempted immediately and
//    the processor runs the child (dives() is true).
//  * A newly forked child is placed to the immediate left of its parent.
//  * Every time a thread is scheduled it receives a memory quota of K bytes
//    (needs_quota() = true; the engine resets t->quota and preempts the
//    thread when the quota is exhausted).
//  * A preempted thread re-enters the ready set at the position marked by
//    its entry — i.e., nothing moves; its state simply flips back to Ready.
//  * Allocations of m > K bytes cause δ = ceil(m/K) dummy threads to be
//    forked (as a binary tree) before the allocation; that logic lives in
//    df_malloc (runtime/api.cpp) since it is a library-level rewrite, not a
//    queue policy.
//
// Ready threads are also linked into a list sorted by their serial-order
// tags, so dispatch takes the leftmost ready thread without walking past the
// blocked and running placeholders to its left (hundreds of them when many
// long-lived fibers block on sync objects). Relabeling the order list never
// changes the relative order of two entries, so the list stays sorted; an
// insert walks only the ready threads, of which AsyncDF keeps few.
#pragma once

#include <array>
#include <cstddef>

#include "core/order_list.h"
#include "core/scheduler.h"

namespace dfth {

// Not final: the invariant-auditor tests subclass it with a deliberately
// wrong pick_next to prove the auditor catches scheduler bugs.
class AsyncDfScheduler : public Scheduler {
 public:
  SchedKind kind() const override { return SchedKind::AsyncDf; }
  bool needs_quota() const override { return true; }

  bool dives(const Tcb* parent, const Tcb* child) const override;
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return ready_count_; }

  /// Live entries (placeholders) at a priority level — tests use this to
  /// verify the S1 + O(pKD) bound's structural preconditions.
  std::size_t live_count(int priority) const {
    return lists_[static_cast<std::size_t>(priority)].size();
  }

  /// True iff `a` precedes `b` in the serial order (same priority only).
  bool serial_before(const Tcb* a, const Tcb* b) const;

  /// Direct view of one priority level's serial-order list (the invariant
  /// auditor re-checks leftmost dispatch and tag monotonicity through it).
  const OrderList& order_list(int priority) const {
    return lists_[static_cast<std::size_t>(priority)];
  }

 private:
  std::array<OrderList, kNumPriorities> lists_;
  /// The Ready threads of each level, leftmost first (through sched_next).
  std::array<Tcb*, kNumPriorities> ready_{};
  std::size_t ready_count_ = 0;
};

}  // namespace dfth
