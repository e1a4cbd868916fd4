// DFDeques-style scheduler: the algorithm the paper says it is "currently
// working on" in §5.3 —
//
//   "ideally, we would not require the user to further coarsen threads for
//    locality. Instead, the scheduling algorithm should schedule threads
//    that are close in the computation graph on the same processor [...]
//    We are currently working on such a space-efficient scheduling
//    algorithm, and preliminary results indicate that good space and time
//    performance can be obtained even at the finer granularity."
//
// (Published after this paper as Narlikar's DFDeques, SPAA'99.) The design
// implemented here follows that work in spirit:
//
//  * each processor owns a deque of ready threads and works on it LIFO
//    (newest first) — consecutive fine-grained threads spawned by the same
//    computation stay on one processor, giving the locality a single global
//    queue destroys;
//  * the deques themselves are kept in a global *serial order* (an
//    order-maintenance list); an idle processor steals the BOTTOM (oldest)
//    thread of the LEFTMOST non-empty deque — stealing follows the serial
//    order instead of picking random victims, preserving the depth-first
//    space discipline;
//  * after a steal the thief's deque is repositioned immediately to the
//    right of the victim's, so work spawned from the stolen thread keeps
//    its serial-order neighborhood;
//  * the AsyncDF memory quota applies unchanged (needs_quota() = true).
//
// Priorities are not supported (single level, like work stealing).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "core/order_list.h"
#include "core/scheduler.h"

namespace dfth {

class DfDequesScheduler final : public Scheduler {
 public:
  explicit DfDequesScheduler(int nprocs);

  SchedKind kind() const override { return SchedKind::DfDeques; }
  bool needs_quota() const override { return true; }

  /// Work-first, as in DFDeques: the processor dives into the child and its
  /// continuation (the parent) is pushed onto the processor's own deque.
  bool dives(const Tcb* parent, const Tcb* child) const override {
    (void)parent;
    (void)child;
    return true;
  }
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return ready_; }

  std::uint64_t steal_count() const { return steals_; }

  /// True iff proc a's deque precedes proc b's in the global order (tests).
  bool deque_before(int a, int b) const;

 private:
  struct Deque {
    OrderNode order;               ///< position in the global deque order
    std::deque<Tcb*> threads;      ///< back = top (owner end)
    int owner = 0;
  };

  Deque& deque_of(int proc) {
    return deques_[static_cast<std::size_t>(proc) % deques_.size()];
  }
  /// Pops an eligible thread from one end; nullptr if none eligible.
  Tcb* take(Deque& dq, bool from_top, std::uint64_t now, std::uint64_t* earliest);

  std::vector<Deque> deques_;  ///< one per processor, stable addresses
  OrderList order_;            ///< global serial order over the deques
  std::size_t ready_ = 0;
  std::uint64_t steals_ = 0;
};

}  // namespace dfth
