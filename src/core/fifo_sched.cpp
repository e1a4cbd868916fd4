#include "core/fifo_sched.h"

#include <limits>

#include "util/check.h"

namespace dfth {

// The child is enqueued; the parent keeps the processor (dives() is false).
void FifoScheduler::register_thread(Tcb* parent, Tcb* child) {
  (void)parent;
  (void)child;
}

void FifoScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;
  Queue& q = queues_[static_cast<std::size_t>(t->attr.priority)];
  t->sched_next = nullptr;
  if (q.tail) {
    q.tail->sched_next = t;
  } else {
    q.head = t;
  }
  q.tail = t;
  ++ready_;
}

Tcb* FifoScheduler::pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) {
  (void)proc;
  *earliest = std::numeric_limits<std::uint64_t>::max();
  for (int prio = kNumPriorities - 1; prio >= 0; --prio) {
    Queue& q = queues_[static_cast<std::size_t>(prio)];
    Tcb* prev = nullptr;
    for (Tcb* t = q.head; t; prev = t, t = t->sched_next) {
      if (t->ready_at_ns <= now) {
        if (prev) {
          prev->sched_next = t->sched_next;
        } else {
          q.head = t->sched_next;
        }
        if (q.tail == t) q.tail = prev;
        t->sched_next = nullptr;
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  return nullptr;
}

void FifoScheduler::unregister_thread(Tcb* t) {
  // Exiting threads were Running, hence not in any queue.
  DFTH_DCHECK(t->sched_next == nullptr);
  (void)t;
}

}  // namespace dfth
