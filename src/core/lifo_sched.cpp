#include "core/lifo_sched.h"

#include <limits>

#include "util/check.h"

namespace dfth {

// The child is pushed; the parent keeps the processor (dives() is false).
void LifoScheduler::register_thread(Tcb* parent, Tcb* child) {
  (void)parent;
  (void)child;
}

void LifoScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;
  Tcb*& top = tops_[static_cast<std::size_t>(t->attr.priority)];
  t->sched_next = top;
  top = t;
  ++ready_;
}

Tcb* LifoScheduler::pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) {
  (void)proc;
  *earliest = std::numeric_limits<std::uint64_t>::max();
  for (int prio = kNumPriorities - 1; prio >= 0; --prio) {
    Tcb** link = &tops_[static_cast<std::size_t>(prio)];
    for (Tcb* t = *link; t; link = &t->sched_next, t = t->sched_next) {
      if (t->ready_at_ns <= now) {
        *link = t->sched_next;
        t->sched_next = nullptr;
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  return nullptr;
}

void LifoScheduler::unregister_thread(Tcb* t) {
  DFTH_DCHECK(t->sched_next == nullptr);
  (void)t;
}

}  // namespace dfth
