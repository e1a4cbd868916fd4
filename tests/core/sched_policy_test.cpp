// Scheduler policy unit tests at the Tcb level, emulating the engine's
// calling contract (register -> on_ready -> pick_next -> ...).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/asyncdf_sched.h"
#include "core/fifo_sched.h"
#include "core/lifo_sched.h"
#include "core/scheduler.h"
#include "core/worksteal_sched.h"

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

struct Harness {
  std::vector<std::unique_ptr<Tcb>> tcbs;
  std::uint64_t next_id = 1;

  Tcb* make(int priority = 0) {
    tcbs.push_back(std::make_unique<Tcb>(next_id++));
    tcbs.back()->attr.priority = priority;
    return tcbs.back().get();
  }

  /// Emulates the engine's spawn protocol; returns true if the child
  /// preempted the parent.
  bool spawn(Scheduler& s, Tcb* parent, Tcb* child, int proc = 0) {
    const bool preempt = s.dives(parent, child);
    s.register_thread(parent, child);
    if (preempt) {
      if (parent) {
        parent->state.store(ThreadState::Ready, std::memory_order_relaxed);
        s.on_ready(parent, proc);
      }
      child->state.store(ThreadState::Running, std::memory_order_relaxed);
    } else {
      child->state.store(ThreadState::Ready, std::memory_order_relaxed);
      s.on_ready(child, proc);
    }
    return preempt;
  }

  Tcb* pick(Scheduler& s, int proc = 0, std::uint64_t now = kInf) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.pick_next(proc, now, &earliest);
    if (t) t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }

  /// The cross-domain entry point, as an engine calls it under the
  /// victim's lock.
  Tcb* steal(Scheduler& s, int proc, int victim, std::uint64_t now = kInf) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.steal(proc, victim, now, &earliest);
    if (t) t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }
};

// ---------- FIFO ----------

TEST(FifoScheduler, BreadthFirstOrder) {
  FifoScheduler s;
  Harness h;
  Tcb* root = h.make();
  EXPECT_FALSE(h.spawn(s, nullptr, root));  // FIFO never preempts
  Tcb* a = h.make();
  Tcb* b = h.make();
  EXPECT_FALSE(h.spawn(s, root, a));
  EXPECT_FALSE(h.spawn(s, root, b));
  // Dispatch order is arrival order: root, a, b.
  EXPECT_EQ(h.pick(s), root);
  EXPECT_EQ(h.pick(s), a);
  EXPECT_EQ(h.pick(s), b);
  EXPECT_EQ(h.pick(s), nullptr);
}

TEST(FifoScheduler, VirtualTimeEligibility) {
  FifoScheduler s;
  Harness h;
  Tcb* a = h.make();
  Tcb* b = h.make();
  a->ready_at_ns = 100;
  b->ready_at_ns = 50;
  a->state.store(ThreadState::Ready, std::memory_order_relaxed);
  b->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(a, 0);
  s.on_ready(b, 0);
  std::uint64_t earliest = kInf;
  // At t=10 nothing eligible; earliest is the front-most minimum (50).
  EXPECT_EQ(s.pick_next(0, 10, &earliest), nullptr);
  EXPECT_EQ(earliest, 50u);
  // At t=60, only b (despite a being ahead in the queue).
  EXPECT_EQ(s.pick_next(0, 60, &earliest), b);
  EXPECT_EQ(s.pick_next(0, 60, &earliest), nullptr);
  EXPECT_EQ(s.pick_next(0, 100, &earliest), a);
}

TEST(FifoScheduler, PriorityLevelsStrict) {
  FifoScheduler s;
  Harness h;
  Tcb* lo = h.make(0);
  Tcb* hi = h.make(3);
  h.spawn(s, nullptr, lo);
  h.spawn(s, nullptr, hi);
  EXPECT_EQ(h.pick(s), hi);
  EXPECT_EQ(h.pick(s), lo);
}

// ---------- LIFO ----------

TEST(LifoScheduler, DepthFirstOrder) {
  LifoScheduler s;
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* a = h.make();
  Tcb* b = h.make();
  h.spawn(s, root, a);
  h.spawn(s, root, b);
  // Stack order: most recently pushed first.
  EXPECT_EQ(h.pick(s), b);
  EXPECT_EQ(h.pick(s), a);
  EXPECT_EQ(h.pick(s), root);
}

TEST(LifoScheduler, PriorityBeatsRecency) {
  LifoScheduler s;
  Harness h;
  Tcb* hi = h.make(5);
  Tcb* lo = h.make(1);
  h.spawn(s, nullptr, hi);
  h.spawn(s, nullptr, lo);  // lo pushed last but lower priority
  EXPECT_EQ(h.pick(s), hi);
  EXPECT_EQ(h.pick(s), lo);
}

// ---------- AsyncDF ----------

TEST(AsyncDfScheduler, PreemptsParentAndRunsChild) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make();
  EXPECT_TRUE(h.spawn(s, nullptr, root));  // root starts running
  Tcb* child = h.make();
  EXPECT_TRUE(h.spawn(s, root, child));  // "parent is preempted immediately"
  EXPECT_EQ(child->state.load(), ThreadState::Running);
  EXPECT_EQ(root->state.load(), ThreadState::Ready);
}

TEST(AsyncDfScheduler, ChildPlacedImmediatelyLeftOfParent) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);
  Tcb* c2 = h.make();
  h.spawn(s, c1, c2);  // c1 forks c2: order must be c2 < c1 < root
  EXPECT_TRUE(s.serial_before(c2, c1));
  EXPECT_TRUE(s.serial_before(c1, root));
  // Sibling fork: root (running again) forks c3 -> c2 < c1? order c1<c3? No:
  // c3 goes immediately left of root, i.e., after c1: c2 < c1 < c3 < root.
  Tcb* c3 = h.make();
  h.spawn(s, root, c3);
  EXPECT_TRUE(s.serial_before(c1, c3));
  EXPECT_TRUE(s.serial_before(c3, root));
}

TEST(AsyncDfScheduler, DispatchesLeftmostReady) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);  // c1 running, root ready
  Tcb* c2 = h.make();
  h.spawn(s, c1, c2);  // c2 running, c1 ready; order c2 < c1 < root
  // Make everything ready, then pick: leftmost first.
  c2->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(c2, 0);
  EXPECT_EQ(h.pick(s), c2);
  EXPECT_EQ(h.pick(s), c1);
  EXPECT_EQ(h.pick(s), root);
  EXPECT_EQ(h.pick(s), nullptr);
}

TEST(AsyncDfScheduler, PlaceholderSurvivesBlockAndPreemption) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);
  // c1 blocks (e.g. on a mutex): it keeps its entry, is just not Ready.
  c1->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  EXPECT_EQ(h.pick(s), root);  // root is the only ready thread
  // c1 wakes: re-enters at its placeholder — still left of root.
  c1->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(c1, 0);
  root->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(root, 0);
  EXPECT_EQ(h.pick(s), c1);
  EXPECT_TRUE(s.serial_before(c1, root));
}

TEST(AsyncDfScheduler, ExitRemovesPlaceholder) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);
  EXPECT_EQ(s.live_count(0), 2u);
  c1->state.store(ThreadState::Done, std::memory_order_relaxed);
  s.unregister_thread(c1);
  EXPECT_EQ(s.live_count(0), 1u);
  EXPECT_FALSE(c1->order.linked());
}

TEST(AsyncDfScheduler, NeedsQuota) {
  AsyncDfScheduler s;
  EXPECT_TRUE(s.needs_quota());
  FifoScheduler f;
  EXPECT_FALSE(f.needs_quota());
}

TEST(AsyncDfScheduler, LowerPriorityChildDoesNotPreempt) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make(4);
  h.spawn(s, nullptr, root);
  Tcb* low = h.make(1);
  EXPECT_FALSE(h.spawn(s, root, low));
  EXPECT_EQ(low->state.load(), ThreadState::Ready);
}

TEST(AsyncDfScheduler, HigherPriorityPickedFirst) {
  AsyncDfScheduler s;
  Harness h;
  Tcb* root = h.make(4);
  h.spawn(s, nullptr, root);
  Tcb* low = h.make(1);
  h.spawn(s, root, low);
  root->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(root, 0);
  EXPECT_EQ(h.pick(s), root);  // priority 4 before priority 1
  EXPECT_EQ(h.pick(s), low);
}

// ---------- Work stealing ----------

TEST(WorkStealScheduler, OwnerPopsMostRecent) {
  WorkStealScheduler s(2, /*seed=*/1);
  Harness h;
  Tcb* a = h.make();
  Tcb* b = h.make();
  a->state.store(ThreadState::Ready, std::memory_order_relaxed);
  b->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(a, 0);
  s.on_ready(b, 0);
  EXPECT_EQ(h.pick(s, 0), b);  // own deque: LIFO end
  EXPECT_EQ(h.pick(s, 0), a);
}

TEST(WorkStealScheduler, ThiefStealsOldest) {
  WorkStealScheduler s(2, /*seed=*/1);
  Harness h;
  Tcb* a = h.make();
  Tcb* b = h.make();
  a->state.store(ThreadState::Ready, std::memory_order_relaxed);
  b->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(a, 0);
  s.on_ready(b, 0);
  // Processor 1 owns an empty deque, and its own pick never crosses into
  // another lane's domain; the steal entry point takes the *bottom*
  // (oldest) of 0's.
  EXPECT_EQ(h.pick(s, 1), nullptr);
  EXPECT_EQ(s.steal_count(), 0u);
  EXPECT_EQ(h.steal(s, 1, /*victim=*/0), a);
  EXPECT_EQ(s.steal_count(), 1u);
  EXPECT_EQ(s.ready_in(0), 1u);
  EXPECT_EQ(h.steal(s, 1, /*victim=*/1), nullptr);
  EXPECT_EQ(h.pick(s, 0), b);
}

TEST(WorkStealScheduler, OneLockDomainPerLane) {
  WorkStealScheduler s(3, /*seed=*/1);
  Harness h;
  EXPECT_EQ(s.domains(), 3);
  EXPECT_FALSE(s.keeps_home());
  Tcb* a = h.make();
  a->state.store(ThreadState::Ready, std::memory_order_relaxed);
  for (int proc = 0; proc < 3; ++proc) {
    EXPECT_EQ(s.lock_domain(proc), proc);
    // A thread readied by a lane lands in that lane's own deque.
    EXPECT_EQ(s.ready_domain(a, proc), proc);
  }
  s.on_ready(a, 2);
  EXPECT_EQ(s.ready_in(2), 1u);
  EXPECT_EQ(s.ready_in(0), 0u);
  EXPECT_EQ(s.ready_count(), 1u);
  // Each lane draws its first victim from its own seeded stream.
  WorkStealScheduler twin(3, /*seed=*/1);
  for (int i = 0; i < 8; ++i) {
    const int start = s.steal_start(1);
    EXPECT_GE(start, 0);
    EXPECT_LT(start, 3);
    EXPECT_EQ(twin.steal_start(1), start);
  }
}

TEST(WorkStealScheduler, SpawnPreemptsParent) {
  WorkStealScheduler s(2, /*seed=*/1);
  Harness h;
  Tcb* root = h.make();
  EXPECT_TRUE(h.spawn(s, nullptr, root));
  Tcb* child = h.make();
  EXPECT_TRUE(h.spawn(s, root, child));  // work-first
  EXPECT_EQ(child->state.load(), ThreadState::Running);
  // Parent continuation sits in the deque.
  EXPECT_EQ(h.pick(s, 0), root);
}

// ---------- factory & names ----------

TEST(SchedulerFactory, MakesEveryKind) {
  for (auto kind : {SchedKind::Fifo, SchedKind::Lifo, SchedKind::AsyncDf,
                    SchedKind::WorkSteal}) {
    auto s = make_scheduler(kind, 4, 7);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), kind);
    EXPECT_EQ(sched_kind_from_string(to_string(s->kind())), kind);
  }
}

}  // namespace
}  // namespace dfth
