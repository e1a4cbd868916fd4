// Cilk-style work stealing, the space-efficient baseline the paper compares
// against in §2.1: per-processor deques of ready threads; on a fork the
// processor runs the child and pushes the parent (work-first); an idle
// processor picks a random victim and steals from the *bottom* (oldest end)
// of its deque. Guarantees live space ≤ p · S1, which bench/abl_ws_vs_adf
// contrasts with AsyncDF's S1 + O(pKD).
//
// Each processor's deque is its own lock domain (core/scheduler.h), so no
// lock is global: a lane locks only its own deque, and a thief locks only
// its victim's. The deques are locked, not lock-free (Chase–Lev): a lane's
// lock is uncontended except during a steal, and a recorded run needs a
// critical section to commit each steal in (replay/session.h).
//
// Priorities are not supported by this policy (Cilk has none); all threads
// are treated as one level. Victim selection uses a deterministic seeded RNG
// per processor so simulator runs are reproducible.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>

#include "core/scheduler.h"
#include "util/rng.h"

namespace dfth {

class WorkStealScheduler final : public Scheduler {
 public:
  WorkStealScheduler(int nprocs, std::uint64_t seed);

  SchedKind kind() const override { return SchedKind::WorkSteal; }

  /// Work-first: the processor dives into the child; the engine pushes the
  /// parent continuation onto the deque (on_ready(parent)).
  bool dives(const Tcb* parent, const Tcb* child) const override {
    (void)parent;
    (void)child;
    return true;
  }
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override;

  int domains() const override { return nlanes_; }
  int lock_domain(int proc) const override { return proc % nlanes_; }
  std::size_t ready_in(int domain) const override {
    return lanes_[static_cast<std::size_t>(domain)].ready.load(
        std::memory_order_relaxed);
  }
  int steal_start(int proc) override;
  Tcb* steal(int proc, int victim, std::uint64_t now,
             std::uint64_t* earliest) override;

  std::uint64_t steal_count() const;

 private:
  /// One processor's domain: everything in it is guarded by that domain's
  /// lock; `ready` is also read without it, as a steal hint.
  struct alignas(64) Lane {
    std::deque<Tcb*> dq;  ///< back == top (owner end), front == bottom
    std::atomic<std::size_t> ready{0};
    std::uint64_t steals = 0;  ///< threads stolen *from* this lane
    Rng rng;                   ///< this lane's victim choice
  };

  /// Pops an eligible thread from `lane`; `from_top` selects the owner end
  /// (top/back) vs the thief end (bottom/front).
  static Tcb* take(Lane& lane, bool from_top, std::uint64_t now,
                   std::uint64_t* earliest);

  int nlanes_;
  std::unique_ptr<Lane[]> lanes_;
};

}  // namespace dfth
