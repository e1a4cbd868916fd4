// The stock scheduler: a global FIFO ready queue per priority level, as in
// the Solaris 2.5 Pthreads SCHED_OTHER implementation the paper studies.
// A forked child is appended to the queue and the parent keeps running, so
// fork trees execute breadth-first — the root cause of the thread explosion
// in Figures 5 and 6.
#pragma once

#include <array>
#include <cstddef>

#include "core/scheduler.h"

namespace dfth {

class FifoScheduler final : public Scheduler {
 public:
  SchedKind kind() const override { return SchedKind::Fifo; }

  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return ready_; }

 private:
  struct Queue {
    Tcb* head = nullptr;
    Tcb* tail = nullptr;
  };
  std::array<Queue, kNumPriorities> queues_;
  std::size_t ready_ = 0;
};

}  // namespace dfth
