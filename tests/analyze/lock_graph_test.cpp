// Lockset deadlock-detector tests: the lock-order graph itself (no engine
// needed), the engine-level hooks in runtime/sync.cpp (validated runs), the
// per-run validation switch, and the always-on CondVar held-mutex assertion.
#include <gtest/gtest.h>

#include <vector>

#include "analyze/auditor.h"
#include "analyze/lock_graph.h"
#include "analyze/validation.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "threads/tcb.h"

namespace dfth {
namespace {

RuntimeOptions sim_opts() {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 2;
  o.default_stack_size = 16 << 10;
  return o;
}

// ---------- LockGraph unit tests (standalone instance, no engine) ----------

TEST(LockGraph, ConsistentOrderIsClean) {
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t1(1), t2(2);
  int a = 0, b = 0;
  // Both threads take a before b: one order edge, no cycle.
  g.on_acquire(&t1, &a);
  g.on_acquire(&t1, &b);
  g.on_release(&t1, &b);
  g.on_release(&t1, &a);
  g.on_acquire(&t2, &a);
  g.on_acquire(&t2, &b);
  g.on_release(&t2, &b);
  g.on_release(&t2, &a);
  EXPECT_EQ(g.cycles_detected(), 0u);
  EXPECT_TRUE(t1.held_locks.empty());
  EXPECT_TRUE(t2.held_locks.empty());
}

TEST(LockGraph, AbbaInversionDetected) {
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t1(1), t2(2);
  int a = 0, b = 0;
  g.on_acquire(&t1, &a);
  g.on_acquire(&t1, &b);  // edge a -> b
  g.on_release(&t1, &b);
  g.on_release(&t1, &a);
  g.on_acquire(&t2, &b);
  g.on_acquire(&t2, &a);  // edge b -> a: closes the cycle
  EXPECT_EQ(g.cycles_detected(), 1u);
}

TEST(LockGraph, EdgesPersistAfterRelease) {
  // The whole point of the lockset algorithm: the inversion is reported even
  // though the two critical sections never overlapped in time.
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t(1);
  int a = 0, b = 0;
  g.on_acquire(&t, &a);
  g.on_acquire(&t, &b);
  g.on_release(&t, &b);
  g.on_release(&t, &a);
  // Same thread, later, opposite order — still a hazard if these sections
  // can ever run concurrently in other threads.
  g.on_acquire(&t, &b);
  g.on_acquire(&t, &a);
  EXPECT_EQ(g.cycles_detected(), 1u);
}

TEST(LockGraph, ThreeLockCycle) {
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t1(1), t2(2), t3(3);
  int a = 0, b = 0, c = 0;
  g.on_acquire(&t1, &a);
  g.on_acquire(&t1, &b);  // a -> b
  g.on_acquire(&t2, &b);
  g.on_acquire(&t2, &c);  // b -> c
  g.on_acquire(&t3, &c);
  g.on_acquire(&t3, &a);  // c -> a: cycle through three locks
  EXPECT_EQ(g.cycles_detected(), 1u);
}

TEST(LockGraph, AbbaViaRdlockDetected) {
  // Reader/writer ABBA: under the writer-preferring RwLock a held read lock
  // blocks the next writer, so opposite-order acquisition chains deadlock
  // even when one side is only a read acquisition.
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t1(1), t2(2);
  int rw = 0, m = 0;
  g.on_acquire_shared(&t1, &rw);
  g.on_acquire(&t1, &m);  // edge rw -> m
  g.on_release(&t1, &m);
  g.on_release(&t1, &rw);
  g.on_acquire(&t2, &m);
  g.on_acquire_shared(&t2, &rw);  // edge m -> rw: closes the cycle
  EXPECT_EQ(g.cycles_detected(), 1u);
}

TEST(LockGraph, SharedAcquireTracksHeldSet) {
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t(1);
  int rw = 0;
  g.on_acquire_shared(&t, &rw);
  EXPECT_EQ(t.held_locks.size(), 1u);
  g.on_release(&t, &rw);
  EXPECT_TRUE(t.held_locks.empty());
}

TEST(LockGraph, ClearResets) {
  analyze::LockGraph g;
  g.set_abort_on_cycle(false);
  Tcb t1(1), t2(2);
  int a = 0, b = 0;
  g.on_acquire(&t1, &a);
  g.on_acquire(&t1, &b);
  g.on_release(&t1, &b);
  g.on_release(&t1, &a);
  g.on_acquire(&t2, &b);
  g.on_acquire(&t2, &a);
  ASSERT_EQ(g.cycles_detected(), 1u);
  g.on_release(&t2, &a);
  g.on_release(&t2, &b);
  g.clear();
  EXPECT_EQ(g.cycles_detected(), 0u);
  // The same inversion must be re-detectable from scratch.
  g.on_acquire(&t1, &a);
  g.on_acquire(&t1, &b);
  g.on_release(&t1, &b);
  g.on_release(&t1, &a);
  g.on_acquire(&t2, &b);
  g.on_acquire(&t2, &a);
  EXPECT_EQ(g.cycles_detected(), 1u);
}

// ---------- engine-level hooks (validated runs) ----------

void abba_body() {
  static Mutex a, b;
  Thread first = spawn([]() -> void* {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
    return nullptr;
  });
  join(first);
  Thread second = spawn([]() -> void* {
    b.lock();
    a.lock();
    a.unlock();
    b.unlock();
    return nullptr;
  });
  join(second);
}

void run_abba_program() { run(sim_opts(), abba_body); }

TEST(LockGraphEngine, AbbaThroughMutexHooksFires) {
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  g.set_abort_on_cycle(false);
  run_abba_program();
  EXPECT_GE(g.cycles_detected(), 1u);
  g.clear();
  g.set_abort_on_cycle(true);
}

TEST(LockGraphEngine, RwLockWriteModeParticipates) {
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  g.set_abort_on_cycle(false);
  run(sim_opts(), [] {
    static Mutex m;
    static RwLock rw;
    Thread first = spawn([]() -> void* {
      m.lock();
      rw.wrlock();
      rw.wrunlock();
      m.unlock();
      return nullptr;
    });
    join(first);
    Thread second = spawn([]() -> void* {
      rw.wrlock();
      m.lock();
      m.unlock();
      rw.wrunlock();
      return nullptr;
    });
    join(second);
  });
  // (m and rw have static storage so the captureless fiber lambdas above can
  // legally name them.)
  EXPECT_GE(g.cycles_detected(), 1u);
  g.clear();
  g.set_abort_on_cycle(true);
}

TEST(LockGraphEngine, RwLockReadModeParticipates) {
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  g.set_abort_on_cycle(false);
  run(sim_opts(), [] {
    static Mutex m;
    static RwLock rw;
    Thread first = spawn([]() -> void* {
      rw.rdlock();
      m.lock();
      m.unlock();
      rw.rdunlock();
      return nullptr;
    });
    join(first);
    Thread second = spawn([]() -> void* {
      m.lock();
      rw.rdlock();
      rw.rdunlock();
      m.unlock();
      return nullptr;
    });
    join(second);
  });
  EXPECT_GE(g.cycles_detected(), 1u);
  g.clear();
  g.set_abort_on_cycle(true);
}

TEST(LockGraphEngine, CleanProgramStaysClean) {
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  run(sim_opts(), [] {
    static Mutex a, b;
    static int counter = 0;
    std::vector<Thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.push_back(spawn([]() -> void* {
        a.lock();
        b.lock();
        ++counter;
        b.unlock();
        a.unlock();
        return nullptr;
      }));
    }
    for (Thread& t : threads) join(t);
  });
  EXPECT_EQ(g.cycles_detected(), 0u);
}

TEST(LockGraphDeathTest, AbbaAbortsByDefault) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(run_abba_program(), "potential deadlock");
}

// ---------- the validation switch ----------

TEST(ValidationSwitch, GatesTheAuditorAndTheLockGraphPerRun) {
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  g.set_abort_on_cycle(false);
  // Runs the ABBA program; returns whether the run had an auditor.
  auto audited_abba = [] {
    bool audited = false;
    run(sim_opts(), [&audited] {
      audited = analyze::active_auditor() != nullptr;
      abba_body();
    });
    return audited;
  };

  analyze::set_validation(false);
  EXPECT_FALSE(audited_abba());
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.cycles_detected(), 0u);

  analyze::set_validation(true);
  EXPECT_TRUE(audited_abba());
  EXPECT_EQ(g.edge_count(), 2u);  // a → b, then b → a
  EXPECT_EQ(g.cycles_detected(), 1u);
  g.clear();
  g.set_abort_on_cycle(true);
}

// ---------- always-on CondVar held-mutex assertion ----------

TEST(CondVarDeathTest, WaitWithoutHoldingMutexAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(run(sim_opts(),
                   [] {
                     Mutex m;
                     CondVar cv;
                     cv.wait(m);  // caller never locked m
                   }),
               "does not hold the mutex");
}

}  // namespace
}  // namespace dfth
