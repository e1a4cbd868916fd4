#include "core/dfdeques_sched.h"

#include <limits>

#include "obs/edges.h"
#include "replay/hooks.h"
#include "util/check.h"

namespace dfth {

DfDequesScheduler::DfDequesScheduler(int nprocs)
    : deques_(static_cast<std::size_t>(nprocs > 0 ? nprocs : 1)) {
  // Initial order: processor 0's deque leftmost (it will receive the main
  // thread), the rest following — their first contact with work is a steal,
  // which repositions them anyway.
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    deques_[i].owner = static_cast<int>(i);
    deques_[i].order.owner = &deques_[i];
    order_.push_back(&deques_[i].order);
  }
}

void DfDequesScheduler::register_thread(Tcb* parent, Tcb* child) {
  (void)parent;
  (void)child;
}

void DfDequesScheduler::on_ready(Tcb* t, int proc) {
  Deque& dq = deque_of(proc);
  t->home_proc = dq.owner;
  dq.threads.push_back(t);  // back == top (owner's LIFO end)
  ++ready_;
}

Tcb* DfDequesScheduler::take(Deque& dq, bool from_top, std::uint64_t now,
                             std::uint64_t* earliest) {
  if (from_top) {
    for (auto it = dq.threads.rbegin(); it != dq.threads.rend(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.threads.erase(std::next(it).base());
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  } else {
    for (auto it = dq.threads.begin(); it != dq.threads.end(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.threads.erase(it);
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  return nullptr;
}

Tcb* DfDequesScheduler::pick_next(int proc, std::uint64_t now,
                                  std::uint64_t* earliest) {
  *earliest = std::numeric_limits<std::uint64_t>::max();
  Deque& own = deque_of(proc);

  // Own deque first, newest thread first: the locality path.
  if (Tcb* t = take(own, /*from_top=*/true, now, earliest)) return t;

  // Steal: walk the global deque order from the left and take the BOTTOM
  // (serially earliest) thread of the first deque that has one.
  for (OrderNode* node = order_.front();
       node != nullptr && node != order_.end_sentinel(); node = node->next) {
    auto* victim = static_cast<Deque*>(node->owner);
    if (victim == &own) continue;
    if (Tcb* t = take(*victim, /*from_top=*/false, now, earliest)) {
      ++steals_;
      obs::edges::steal(proc, t, static_cast<std::uint64_t>(victim->owner),
                        now);
      DFTH_REPLAY_STEAL(proc, t->id, static_cast<std::uint64_t>(victim->owner));
      // Reposition the thief's deque right of the victim so work spawned
      // from the stolen thread keeps its serial-order neighborhood.
      order_.erase(&own.order);
      order_.insert_after(&victim->order, &own.order);
      t->home_proc = own.owner;
      return t;
    }
  }
  return nullptr;
}

void DfDequesScheduler::unregister_thread(Tcb* t) {
  // Exiting threads were Running, hence in no deque.
  (void)t;
}

bool DfDequesScheduler::deque_before(int a, int b) const {
  const Deque& da = deques_[static_cast<std::size_t>(a) % deques_.size()];
  const Deque& db = deques_[static_cast<std::size_t>(b) % deques_.size()];
  return order_.before(&da.order, &db.order);
}

}  // namespace dfth
