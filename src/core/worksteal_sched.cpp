#include "core/worksteal_sched.h"

#include <limits>

#include "obs/edges.h"
#include "replay/hooks.h"
#include "util/check.h"

namespace dfth {

WorkStealScheduler::WorkStealScheduler(int nprocs, std::uint64_t seed)
    : nlanes_(nprocs > 0 ? nprocs : 1),
      lanes_(std::make_unique<Lane[]>(static_cast<std::size_t>(nlanes_))) {
  Rng seeder(seed);
  for (int i = 0; i < nlanes_; ++i) {
    lanes_[static_cast<std::size_t>(i)].rng.reseed(seeder.next_u64());
  }
}

void WorkStealScheduler::register_thread(Tcb* parent, Tcb* child) {
  (void)parent;
  (void)child;
}

void WorkStealScheduler::on_ready(Tcb* t, int proc) {
  const int idx = lock_domain(proc);
  Lane& lane = lanes_[static_cast<std::size_t>(idx)];
  t->home_proc = idx;
  lane.dq.push_back(t);
  lane.ready.store(lane.ready.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

Tcb* WorkStealScheduler::take(Lane& lane, bool from_top, std::uint64_t now,
                              std::uint64_t* earliest) {
  // Scan from the requested end for the first virtual-time-eligible thread.
  std::deque<Tcb*>& dq = lane.dq;
  Tcb* found = nullptr;
  if (from_top) {
    for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.erase(std::next(it).base());
        found = t;
        break;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  } else {
    for (auto it = dq.begin(); it != dq.end(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.erase(it);
        found = t;
        break;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  if (found) {
    lane.ready.store(lane.ready.load(std::memory_order_relaxed) - 1,
                     std::memory_order_relaxed);
  }
  return found;
}

Tcb* WorkStealScheduler::pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) {
  *earliest = std::numeric_limits<std::uint64_t>::max();
  // Own deque only, owner end; the engine steals through steal().
  return take(lanes_[static_cast<std::size_t>(lock_domain(proc))],
              /*from_top=*/true, now, earliest);
}

int WorkStealScheduler::steal_start(int proc) {
  // A random starting victim; the engine then cycles through the others.
  return static_cast<int>(lanes_[static_cast<std::size_t>(lock_domain(proc))]
                              .rng.next_below(static_cast<std::uint64_t>(nlanes_)));
}

Tcb* WorkStealScheduler::steal(int proc, int victim, std::uint64_t now,
                               std::uint64_t* earliest) {
  Lane& lane = lanes_[static_cast<std::size_t>(victim)];
  Tcb* t = take(lane, /*from_top=*/false, now, earliest);
  if (!t) return nullptr;
  ++lane.steals;
  // The steal latency burdens the stolen thread's critical path: an ideal
  // scheduler would have run it the instant it became ready.
  obs::edges::steal(proc, t, static_cast<std::uint64_t>(victim), now);
  DFTH_REPLAY_STEAL(proc, t->id, static_cast<std::uint64_t>(victim));
  return t;
}

void WorkStealScheduler::unregister_thread(Tcb* t) {
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) != ThreadState::Ready);
  (void)t;
}

std::size_t WorkStealScheduler::ready_count() const {
  std::size_t n = 0;
  for (int i = 0; i < nlanes_; ++i) n += ready_in(i);
  return n;
}

std::uint64_t WorkStealScheduler::steal_count() const {
  std::uint64_t n = 0;
  for (int i = 0; i < nlanes_; ++i) n += lanes_[static_cast<std::size_t>(i)].steals;
  return n;
}

}  // namespace dfth
