// Real-engine specifics: bound threads, fiber migration across workers,
// oversubscription stress, wall-clock sanity, and the scheduler-lock
// protocol (sections per spawn, posted readies, spin-then-park wakeups under
// 4-way load).
#include "runtime/real_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "runtime/sync.h"
#include "uneven_tree.h"
#include "space/stack_pool.h"
#include "space/tracked_heap.h"

namespace dfth {
namespace {

RuntimeOptions real_opts(SchedKind sched = SchedKind::AsyncDf, int nprocs = 4) {
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = sched;
  o.nprocs = nprocs;
  o.default_stack_size = 8 << 10;
  return o;
}

TEST(RealEngine, BoundThreadRunsOnDedicatedKernelThread) {
  std::thread::id main_tid = std::this_thread::get_id();
  std::thread::id bound_tid;
  run(real_opts(SchedKind::AsyncDf, 1), [&] {
    Attr attr;
    attr.bound = true;
    auto t = spawn(
        [&bound_tid]() -> void* {
          bound_tid = std::this_thread::get_id();
          return reinterpret_cast<void*>(0x77);
        },
        attr);
    EXPECT_EQ(join(t), reinterpret_cast<void*>(0x77));
  });
  EXPECT_NE(bound_tid, std::thread::id{});
  EXPECT_NE(bound_tid, main_tid);
}

TEST(RealEngine, BoundAndUnboundInterleave) {
  std::atomic<int> count{0};
  run(real_opts(), [&] {
    std::vector<Thread> threads;
    for (int i = 0; i < 20; ++i) {
      Attr attr;
      attr.bound = (i % 3 == 0);
      threads.push_back(spawn(
          [&count]() -> void* {
            count.fetch_add(1);
            return nullptr;
          },
          attr));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(count.load(), 20);
}

// Bound threads take the same waits as fibers, timed ones included: the
// supervisor claims a bound waiter's timeout on the fibers' path.
TEST(RealEngine, BoundThreadCanUseMutex) {
  constexpr int kThreads = 8;
  constexpr int kBound = kThreads / 2;
  constexpr std::uint64_t kGenerousNs = 20'000'000'000ull;  // never expires
  long long counter = 0;
  std::atomic<int> timed_locks{0};
  std::atomic<int> starved{0};
  const RunStats stats = run(real_opts(), [&] {
    Mutex mu;
    Semaphore never(0);
    std::vector<Thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      Attr attr;
      attr.bound = (i % 2 == 0);
      threads.push_back(spawn(
          [&, bound = attr.bound]() -> void* {
            for (int j = 0; j < 200; ++j) {
              LockGuard lock(mu);
              ++counter;
            }
            for (int j = 0; j < 50; ++j) {
              if (!mu.try_lock_for(kGenerousNs)) continue;
              ++counter;
              mu.unlock();
              timed_locks.fetch_add(1, std::memory_order_relaxed);
            }
            if (bound && !never.try_acquire_for(1'000'000)) {
              starved.fetch_add(1, std::memory_order_relaxed);
            }
            return nullptr;
          },
          attr));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(timed_locks.load(), kThreads * 50);
  EXPECT_EQ(counter, kThreads * 250);
  EXPECT_EQ(starved.load(), kBound);
  EXPECT_EQ(stats.sync_timeouts, static_cast<std::uint64_t>(kBound));
}

TEST(RealEngine, FibersMigrateBetweenWorkers) {
  // A fiber that blocks and resumes repeatedly has a fair chance of being
  // picked up by different workers; verify it keeps working correctly and
  // (usually) observes more than one kernel thread id.
  std::set<std::thread::id> seen;
  Mutex seen_mu;
  run(real_opts(SchedKind::Fifo, 4), [&] {
    Semaphore ping(0), pong(0);
    auto t = spawn([&]() -> void* {
      for (int i = 0; i < 200; ++i) {
        ping.acquire();
        {
          LockGuard lock(seen_mu);
          seen.insert(std::this_thread::get_id());
        }
        pong.release();
      }
      return nullptr;
    });
    for (int i = 0; i < 200; ++i) {
      ping.release();
      pong.acquire();
    }
    join(t);
  });
  EXPECT_GE(seen.size(), 1u);
}

TEST(RealEngine, StressManyFibersManyWorkers) {
  std::atomic<long long> sum{0};
  RunStats stats = run(real_opts(SchedKind::WorkSteal, 8), [&] {
    std::vector<Thread> threads;
    for (int i = 0; i < 1000; ++i) {
      threads.push_back(spawn([&sum, i]() -> void* {
        sum.fetch_add(i, std::memory_order_relaxed);
        if (i % 7 == 0) yield();
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
  EXPECT_EQ(stats.threads_created, 1001u);
}

TEST(RealEngine, OneMutexManyFibersCountsExactly) {
  // The adaptive Mutex at 4 lanes: lockers spin while the owner runs, barge
  // past woken waiters, and hand off to waiters that lost once. Holders that
  // yield make waiters block; try_lock and try_lock_for take part too.
  // Every acquisition must still be exclusive.
  constexpr int kFibers = 64;
  constexpr int kIters = 100;
  for (SchedKind sched : {SchedKind::AsyncDf, SchedKind::WorkSteal}) {
    long long counter = 0;
    std::atomic<bool> inside{false};
    std::atomic<int> overlaps{0};
    run(real_opts(sched, 4), [&] {
      Mutex mu;
      std::vector<Thread> threads;
      for (int i = 0; i < kFibers; ++i) {
        threads.push_back(spawn([&, i]() -> void* {
          for (int j = 0; j < kIters; ++j) {
            if (j % 10 == 0) {
              if (!mu.try_lock()) mu.lock();
            } else if (j % 10 == 1) {
              EXPECT_TRUE(mu.try_lock_for(20'000'000'000ull));
            } else {
              mu.lock();
            }
            if (inside.exchange(true)) overlaps.fetch_add(1);
            ++counter;
            if ((i + j) % 8 == 0) yield();
            inside.store(false);
            mu.unlock();
          }
          return nullptr;
        }));
      }
      for (auto& t : threads) join(t);
    });
    EXPECT_EQ(counter, kFibers * kIters) << to_string(sched);
    EXPECT_EQ(overlaps.load(), 0) << to_string(sched);
  }
}

TEST(RealEngine, NestedForkJoinTreeParallel) {
  // Fibonacci via naive fork/join — heavy spawn/join churn across workers.
  struct Fib {
    static long long go(int n) {
      if (n < 2) return n;
      auto t = spawn([n]() -> void* {
        return reinterpret_cast<void*>(go(n - 1));
      });
      const long long b = go(n - 2);
      return reinterpret_cast<intptr_t>(join(t)) + b;
    }
  };
  long long result = 0;
  run(real_opts(SchedKind::AsyncDf, 4), [&] { result = Fib::go(16); });
  EXPECT_EQ(result, 987);
}

TEST(RealEngine, WallClockElapsedIsPositive) {
  RunStats stats = run(real_opts(), [] {
    volatile double x = 1.0;
    for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  });
  EXPECT_GT(stats.elapsed_us, 0.0);
  EXPECT_EQ(stats.engine, EngineKind::Real);
}

TEST(RealEngine, StackReuseAcrossThreadGenerations) {
  RunStats stats = run(real_opts(SchedKind::AsyncDf, 2), [] {
    // Sequential generations: later threads must reuse earlier stacks.
    for (int gen = 0; gen < 10; ++gen) {
      std::vector<Thread> threads;
      for (int i = 0; i < 10; ++i) {
        threads.push_back(spawn([]() -> void* { return nullptr; }));
      }
      for (auto& t : threads) join(t);
    }
  });
  EXPECT_GT(stats.stacks_reused, 0u);
  EXPECT_LT(stats.stacks_fresh, 101u);
}

TEST(RealEngine, QuotaPreemptionUnderAsyncDf) {
  RuntimeOptions o = real_opts(SchedKind::AsyncDf, 2);
  o.mem_quota = 4 << 10;
  RunStats stats = run(o, [] {
    for (int i = 0; i < 32; ++i) {
      void* p = df_malloc(2 << 10);
      df_free(p);
    }
  });
  EXPECT_GE(stats.quota_preemptions, 8u);
}

void* binary_tree(int depth) {
  if (depth == 0) return nullptr;
  Thread a = spawn([depth] { return binary_tree(depth - 1); });
  Thread b = spawn([depth] { return binary_tree(depth - 1); });
  join(a);
  join(b);
  return nullptr;
}

// One engine-lock section per spawned thread: its registration and the fork
// dive (its parent's requeue with its own dispatch) are posted without the
// lock, and its exit's section (which also picks the next thread) applies
// them. The difference between two tree sizes leaves out the run's fixed
// sections. The p = 1 AsyncDF schedule is deterministic, so the count
// repeats exactly.
TEST(RealEngine, OneSchedLockSectionPerSpawnAtP1) {
  auto once = [](int depth) {
    return run(real_opts(SchedKind::AsyncDf, 1), [depth] { binary_tree(depth); });
  };
  const RunStats small = once(9);
  const RunStats a = once(10);
  const RunStats b = once(10);
  const std::uint64_t spawned = a.threads_created - small.threads_created;
  ASSERT_EQ(spawned, (1u << 10));
  EXPECT_EQ(a.sched_lock_sections - small.sched_lock_sections, spawned);
  EXPECT_EQ(a.sched_lock_sections, b.sched_lock_sections);
}

// At p = 4 the lanes that run dry add sections of their own (a re-scan
// before each park), so the count is not exact, but a spawned thread still
// costs about one section, against three when every ready took the lock.
TEST(RealEngine, AsyncDfSectionsPerSpawnStayNearOneAtP4) {
  const RunStats st =
      run(real_opts(SchedKind::AsyncDf, 4), [] { binary_tree(13); });
  ASSERT_EQ(st.threads_created, (1u << 14) - 1);
  EXPECT_LE(st.sched_lock_sections, st.threads_created * 3 / 2);
}

// The hazard of a posted dive: the child blocks at once, and a fiber on
// another lane wakes it while the child's registration may still sit on
// its lane's posted list. The wake must apply that registration first (it
// takes a section instead of posting), or the policy would ready a thread
// it never registered. Two fibers that yield in a loop keep the domain lock
// busy, which widens the window between the child's block and its lane's
// next section. A lost wake trips the 5 s watchdog.
TEST(RealEngine, WakeOfChildWithPostedDiveAppliesItsRegistrationFirst) {
  RuntimeOptions o = real_opts(SchedKind::AsyncDf, 4);
  o.watchdog.stall_deadline_ms = 5000;
  std::atomic<int> woken{0};
  constexpr int kRounds = 400;
  run(o, [&] {
    std::atomic<bool> stop{false};
    std::vector<Thread> churn;
    for (int i = 0; i < 2; ++i) {
      churn.push_back(spawn([&stop]() -> void* {
        while (!stop.load(std::memory_order_acquire)) yield();
        return nullptr;
      }));
    }
    for (int round = 0; round < kRounds; ++round) {
      Semaphore go(0);
      std::atomic<bool> armed{false};
      Thread releaser = spawn([&]() -> void* {
        while (!armed.load(std::memory_order_acquire)) {
        }
        go.release();
        return nullptr;
      });
      Thread child = spawn([&]() -> void* {
        armed.store(true, std::memory_order_release);
        go.acquire();
        woken.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      });
      join(child);
      join(releaser);
    }
    stop.store(true, std::memory_order_release);
    for (Thread& t : churn) join(t);
  });
  EXPECT_EQ(woken.load(), kRounds);
}

// No lost wake for a dive: the child spins until its parent's continuation
// runs, and the parent was only posted when the lane dove into the child.
// With the other lanes parked, the post must unpark one of them to pick the
// parent.
TEST(RealEngine, PostedDiveParentRunsBesideSpinningChild) {
  for (SchedKind k : {SchedKind::AsyncDf, SchedKind::DfDeques}) {
    bool seen = true;
    run(real_opts(k, 4), [&] {
      for (int round = 0; round < 50 && seen; ++round) {
        std::atomic<bool> resumed{false};
        bool ok = false;
        // Let the idle workers park before the dive.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Thread t = spawn([&]() -> void* {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (!resumed.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < deadline) {
          }
          ok = resumed.load(std::memory_order_acquire);
          return nullptr;
        });
        resumed.store(true, std::memory_order_release);
        join(t);
        seen = ok;
      }
    });
    EXPECT_TRUE(seen) << to_string(k);
  }
}

// A waker that keeps running must not hold up the fiber it woke: with the
// other workers parked, the woken fiber has to run on one of them while the
// waker spins on its progress (a wait the pthread layer allows).
TEST(RealEngine, WokenFiberRunsBesideSpinningWaker) {
  for (SchedKind k : {SchedKind::AsyncDf, SchedKind::WorkSteal}) {
    bool seen = true;
    run(real_opts(k, 4), [&] {
      for (int round = 0; round < 50 && seen; ++round) {
        Semaphore go(0);
        std::atomic<bool> ran{false};
        Thread t = spawn([&]() -> void* {
          go.acquire();
          ran.store(true, std::memory_order_release);
          return nullptr;
        });
        // Let t block and the idle workers park before the wake.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        go.release();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!ran.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
        }
        seen = ran.load(std::memory_order_acquire);
        join(t);  // blocking here lets this lane run t if nobody else did
      }
    });
    EXPECT_TRUE(seen) << to_string(k);
  }
}

// The all-idle deadlock abort: every fiber waits on a semaphore nobody will
// release, every lane goes idle, and after the grace period the engine
// dumps the flight recorder and aborts.
TEST(RealEngineDeathTest, AllIdleDeadlockAbortsWithFlightRecorder) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (SchedKind k : {SchedKind::AsyncDf, SchedKind::WorkSteal}) {
    auto deadlock = [k] {
      run(real_opts(k, 4), [] {
        Semaphore never(0);
        std::vector<Thread> ths;
        for (int i = 0; i < 8; ++i) {
          ths.push_back(spawn([&never]() -> void* {
            never.acquire();
            return nullptr;
          }));
        }
        for (Thread& t : ths) join(t);
      });
    };
    EXPECT_DEATH(deadlock(),
                 "DFTH FLIGHT RECORDER(.|\n)*deadlock: all threads blocked")
        << to_string(k);
  }
}

// An armed timer is live work: a timed wait that outlasts the deadlock
// grace (500 ms) with every lane idle ends in its timeout, not an abort.
TEST(RealEngine, LongTimedWaitWithEveryLaneIdleIsNoDeadlock) {
  const RunStats stats = run(real_opts(SchedKind::AsyncDf, 2), [] {
    Semaphore never(0);
    EXPECT_FALSE(never.try_acquire_for(700'000'000));
  });
  EXPECT_EQ(stats.sync_timeouts, 1u);
}

// No lost wakeup: between rounds every lane parks, and the only wakes then
// come from outside the lanes — a bound thread releasing a semaphore and
// the timer expiring timed waits. A lost one leaves ready work with every
// lane parked, which the 5 s stall watchdog turns into an abort.
TEST(RealEngine, NoLostWakeupFromBoundThreadsAndTimers) {
  RuntimeOptions o = real_opts(SchedKind::WorkSteal, 4);
  o.watchdog.stall_deadline_ms = 5000;
  constexpr int kFibers = 12;
  constexpr int kRounds = 25;
  for (int rep = 0; rep < 8; ++rep) {
    std::atomic<int> passes{0};
    std::atomic<int> expiries{0};
    run(o, [&] {
      Semaphore go(0);
      Semaphore never(0);
      std::vector<Thread> ths;
      for (int i = 0; i < kFibers; ++i) {
        ths.push_back(spawn([&]() -> void* {
          for (int r = 0; r < kRounds; ++r) {
            go.acquire();
            passes.fetch_add(1, std::memory_order_relaxed);
          }
          return nullptr;
        }));
      }
      for (int i = 0; i < 4; ++i) {
        ths.push_back(spawn([&]() -> void* {
          for (int r = 0; r < kRounds; ++r) {
            if (!never.try_acquire_for(300'000)) {
              expiries.fetch_add(1, std::memory_order_relaxed);
            }
          }
          return nullptr;
        }));
      }
      Attr bound;
      bound.bound = true;
      ths.push_back(spawn(
          [&]() -> void* {
            for (int r = 0; r < kRounds; ++r) {
              // Long enough for the lanes to run dry and park.
              std::this_thread::sleep_for(std::chrono::microseconds(400));
              for (int i = 0; i < kFibers; ++i) go.release();
            }
            return nullptr;
          },
          bound));
      for (Thread& t : ths) join(t);
    });
    EXPECT_EQ(passes.load(), kFibers * kRounds);
    EXPECT_EQ(expiries.load(), 4 * kRounds);
  }
}

// Work stealing takes no engine-global lock on its spawn, dive, exit, pick
// and steal paths: every section is one lane's domain.
TEST(RealEngine, WorkStealSchedulesWithoutTheGlobalLock) {
  std::atomic<std::uint64_t> spawned{0};
  std::uint64_t sum = 0;
  const RunStats st = run(real_opts(SchedKind::WorkSteal, 4), [&] {
    sum = test::uneven_tree(0, 256, 64, &spawned);
  });
  EXPECT_EQ(sum, 256u * 255u / 2);
  EXPECT_GT(st.sched_lock_sections, st.threads_created);
  EXPECT_EQ(st.global_lock_sections, 0u);
  // A policy with one domain takes none either; bound threads do.
  const RunStats adf = run(real_opts(SchedKind::AsyncDf, 4), [&] {
    test::uneven_tree(0, 64, 64, &spawned);
  });
  EXPECT_EQ(adf.global_lock_sections, 0u);
  const RunStats bound = run(real_opts(SchedKind::WorkSteal, 4), [] {
    Attr a;
    a.bound = true;
    join(spawn([]() -> void* { return nullptr; }, a));
  });
  EXPECT_GT(bound.global_lock_sections, 0u);
}

// Fibers pass tokens around a ring of Semaphores with short timed waits, so
// the timer readies fibers as well as the wakers do.
void timed_ring(int fibers, int tokens, int steps,
                std::atomic<std::uint64_t>* spawned) {
  auto sems = std::make_unique<Semaphore[]>(static_cast<std::size_t>(fibers));
  std::vector<Thread> ths;
  for (int i = 0; i < fibers; ++i) {
    ths.push_back(spawn([&sems, fibers, steps, i]() -> void* {
      for (int j = 0; j < steps; ++j) {
        while (!sems[static_cast<std::size_t>(i)].try_acquire_for(20'000)) {
        }
        sems[static_cast<std::size_t>((i + 1) % fibers)].release();
      }
      return nullptr;
    }));
  }
  spawned->fetch_add(static_cast<std::uint64_t>(fibers), std::memory_order_relaxed);
  for (int t = 0; t < tokens; ++t) {
    sems[static_cast<std::size_t>(t * fibers / tokens)].release();
  }
  for (Thread& th : ths) join(th);
}

// Spin-then-park under real 4-way load: a lost wakeup leaves live work with
// every worker parked, which the 5 s stall watchdog turns into an abort.
class RealEngineStress : public ::testing::TestWithParam<SchedKind> {};

TEST_P(RealEngineStress, UnevenTreeAndTimedRingComplete) {
  constexpr std::size_t kLeaves = 256;
  for (int rep = 0; rep < 20; ++rep) {
    RuntimeOptions o = real_opts(GetParam(), 4);
    o.mem_quota = 4 << 10;
    o.watchdog.stall_deadline_ms = 5000;
    const std::int64_t heap0 = TrackedHeap::instance().live_bytes();
    std::atomic<std::uint64_t> spawned{0};
    std::uint64_t sum = 0;
    const RunStats st = run(o, [&] {
      sum = test::uneven_tree(0, kLeaves, 6 << 10, &spawned);
      timed_ring(16, 4, 8, &spawned);
    });
    EXPECT_EQ(sum, kLeaves * (kLeaves - 1) / 2);
    EXPECT_EQ(st.threads_created, 1 + spawned.load() + st.dummy_threads);
    if (GetParam() != SchedKind::WorkSteal) {
      EXPECT_GT(st.dummy_threads, 0u);
      EXPECT_GT(st.quota_preemptions, 0u);
    }
    EXPECT_EQ(StackPool::instance().live_bytes(), 0);
    EXPECT_EQ(TrackedHeap::instance().live_bytes(), heap0);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, RealEngineStress,
                         ::testing::Values(SchedKind::AsyncDf,
                                           SchedKind::WorkSteal,
                                           SchedKind::ClusteredAdf),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth
