// The paper's first fix (§4 item 1): turn the global ready queue into a
// LIFO stack. A forked child is pushed on top and the parent keeps running;
// dispatch pops the most recently pushed thread, which yields an execution
// order close to depth-first and sharply fewer simultaneously-live threads.
#pragma once

#include <array>
#include <cstddef>

#include "core/scheduler.h"

namespace dfth {

class LifoScheduler final : public Scheduler {
 public:
  SchedKind kind() const override { return SchedKind::Lifo; }

  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return ready_; }

 private:
  std::array<Tcb*, kNumPriorities> tops_{};
  std::size_t ready_ = 0;
};

}  // namespace dfth
