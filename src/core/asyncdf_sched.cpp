#include "core/asyncdf_sched.h"

#include <limits>

#include "obs/counters.h"
#include "util/check.h"

namespace dfth {

bool AsyncDfScheduler::register_thread(Tcb* parent, Tcb* child) {
  child->order.owner = child;
  OrderList& list = lists_[static_cast<std::size_t>(child->attr.priority)];
  if (parent && parent->order.linked() &&
      parent->attr.priority == child->attr.priority) {
    // "A newly forked thread is placed to the immediate left of its parent."
    list.insert_before(&parent->order, &child->order);
  } else {
    // Roots (and cross-priority forks) start at the left end of their level:
    // in a serial depth-first execution the newest work runs first.
    list.push_front(&child->order);
  }
  // "When a parent thread forks a child thread, the parent is preempted
  // immediately and the processor starts executing the child thread."
  // Running a lower-priority child would invert the priority order, so the
  // preemption applies only when the child's level is at least the parent's.
  return parent == nullptr || child->attr.priority >= parent->attr.priority;
}

void AsyncDfScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;
  // The thread's placeholder never moved; becoming ready only links it into
  // the ready list at that position. ("When a thread is preempted, it is
  // returned to the scheduling queue in the same position that it was in
  // when it was last selected.")
  DFTH_DCHECK(t->order.linked());
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Ready);
  Tcb** link = &ready_[static_cast<std::size_t>(t->attr.priority)];
  while (*link != nullptr && (*link)->order.tag < t->order.tag) {
    link = &(*link)->sched_next;
  }
  t->sched_next = *link;
  *link = t;
  ++ready_count_;
  DFTH_COUNT(obs::Counter::ReadyPushes);
}

Tcb* AsyncDfScheduler::pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) {
  (void)proc;
  *earliest = std::numeric_limits<std::uint64_t>::max();
  for (int prio = kNumPriorities - 1; prio >= 0; --prio) {
    for (Tcb** link = &ready_[static_cast<std::size_t>(prio)]; *link != nullptr;
         link = &(*link)->sched_next) {
      Tcb* t = *link;
      if (t->ready_at_ns <= now) {
        *link = t->sched_next;
        t->sched_next = nullptr;
        --ready_count_;
        DFTH_COUNT(obs::Counter::ReadyPops);
        DFTH_HIST_WAIT(obs::Hist::ReadyWaitNs, now, t->ready_at_ns);
        return t;  // leftmost ready thread at the highest non-empty level
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  return nullptr;
}

void AsyncDfScheduler::unregister_thread(Tcb* t) {
  // A thread exits while running, so it is never on the ready list here.
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) != ThreadState::Ready);
  if (!t->order.linked()) return;
  lists_[static_cast<std::size_t>(t->attr.priority)].erase(&t->order);
}

bool AsyncDfScheduler::serial_before(const Tcb* a, const Tcb* b) const {
  DFTH_CHECK(a->attr.priority == b->attr.priority);
  return lists_[static_cast<std::size_t>(a->attr.priority)].before(&a->order, &b->order);
}

}  // namespace dfth
