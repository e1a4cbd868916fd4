// Simulation-engine semantics: determinism, causality, the paper's Figure 1
// active-thread counts, Brent's bound, quota preemption and dummy-thread
// insertion, and the AsyncDF space bound on synthetic programs.
#include "runtime/sim_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "uneven_tree.h"

namespace dfth {
namespace {

RuntimeOptions sim_opts(SchedKind sched, int nprocs) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = sched;
  o.nprocs = nprocs;
  o.default_stack_size = 8 << 10;
  return o;
}

// The computation of the paper's Figure 1: a depth-3 binary fork/join tree
// (7 threads total), each node doing a bit of work.
void figure1_tree(int depth) {
  annotate_work(50);
  if (depth <= 1) return;
  auto left = spawn([depth]() -> void* {
    figure1_tree(depth - 1);
    return nullptr;
  });
  auto right = spawn([depth]() -> void* {
    figure1_tree(depth - 1);
    return nullptr;
  });
  join(left);
  join(right);
  annotate_work(50);
}

// "A serial execution of the graph in Figure 1 using a FIFO queue would
// result in all 7 threads being simultaneously active, while a LIFO stack
// would result in at most 3 active threads."
TEST(SimFigure1, FifoKeepsAllSevenThreadsActive) {
  RunStats stats = run(sim_opts(SchedKind::Fifo, 1), [] { figure1_tree(3); });
  // Our root is the main thread, so "7 threads" == main + 6 descendants.
  EXPECT_EQ(stats.threads_created, 7u);
  EXPECT_EQ(stats.max_live_threads, 7);
}

TEST(SimFigure1, LifoKeepsAtMostDepthPlusSiblings) {
  RunStats stats = run(sim_opts(SchedKind::Lifo, 1), [] { figure1_tree(3); });
  EXPECT_EQ(stats.threads_created, 7u);
  // LIFO serial execution: parent forks both children before diving into the
  // most recent one — at most one extra sibling per level stays live.
  EXPECT_LE(stats.max_live_threads, 5);
  EXPECT_LT(stats.max_live_threads, 7);
}

TEST(SimFigure1, AsyncDfKeepsOnlyDepth) {
  RunStats stats = run(sim_opts(SchedKind::AsyncDf, 1), [] { figure1_tree(3); });
  // Depth-first with child-preemption: live = the fork chain = d = 3.
  EXPECT_EQ(stats.max_live_threads, 3);
}

TEST(SimEngine, DeterministicAcrossRuns) {
  auto once = [] {
    return run(sim_opts(SchedKind::AsyncDf, 8), [] {
      std::vector<Thread> threads;
      for (int i = 0; i < 50; ++i) {
        threads.push_back(spawn([i]() -> void* {
          annotate_work(static_cast<std::uint64_t>(100 + 37 * i));
          void* p = df_malloc(1024 * static_cast<std::size_t>(i + 1));
          annotate_work(200);
          df_free(p);
          return nullptr;
        }));
      }
      for (auto& t : threads) join(t);
    });
  };
  const RunStats a = once();
  const RunStats b = once();
  EXPECT_DOUBLE_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.max_live_threads, b.max_live_threads);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.heap_peak, b.heap_peak);
  EXPECT_DOUBLE_EQ(a.breakdown.idle_us, b.breakdown.idle_us);
}

TEST(SimEngine, WorkStealingDeterministicWithSeed) {
  auto once = [](std::uint64_t seed) {
    RuntimeOptions o = sim_opts(SchedKind::WorkSteal, 8);
    o.seed = seed;
    return run(o, [] { figure1_tree(6); });
  };
  const RunStats a = once(7);
  const RunStats b = once(7);
  EXPECT_DOUBLE_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.steals, b.steals);
}

// Brent's bound for greedy schedulers: T1/p <= Tp and Tp <= T1/p + T_inf
// (with our per-op overheads added). We verify the weaker sanity forms:
// speedup never exceeds p, and more processors never slow the run by more
// than the scheduling-overhead epsilon.
class BrentTest : public ::testing::TestWithParam<SchedKind> {};

TEST_P(BrentTest, SpeedupBoundedByP) {
  auto work = [] {
    // Irregular tree: left-heavy work with varying grain.
    struct Rec {
      static void go(int depth, std::uint64_t grain) {
        annotate_work(grain);
        if (depth == 0) return;
        auto left = spawn([depth, grain]() -> void* {
          go(depth - 1, grain * 2);
          return nullptr;
        });
        go(depth - 1, grain);
        join(left);
      }
    };
    Rec::go(7, 400);
  };
  const double t1 = run(sim_opts(GetParam(), 1), work).elapsed_us;
  double prev = t1;
  for (int p : {2, 4, 8, 16}) {
    const double tp = run(sim_opts(GetParam(), p), work).elapsed_us;
    EXPECT_GE(tp * p, t1 * 0.999) << "superlinear speedup at p=" << p;
    // Not grossly slower than fewer processors (allow overhead slack).
    EXPECT_LE(tp, prev * 1.25) << "added processors slowed the run, p=" << p;
    prev = tp;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScheds, BrentTest,
                         ::testing::Values(SchedKind::Fifo, SchedKind::Lifo,
                                           SchedKind::AsyncDf, SchedKind::WorkSteal),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(SimEngine, QuotaExhaustionPreempts) {
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 1);
  o.mem_quota = 4 << 10;
  RunStats stats = run(o, [] {
    // 16 allocations of 1 KB each: the 4 KB quota forces repeated preemption.
    for (int i = 0; i < 16; ++i) {
      void* p = df_malloc(1 << 10);
      df_free(p);
    }
  });
  EXPECT_GE(stats.quota_preemptions, 3u);
}

TEST(SimEngine, LargeAllocationForksDummyThreads) {
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 2);
  o.mem_quota = 8 << 10;
  RunStats stats = run(o, [] {
    void* p = df_malloc(64 << 10);  // m = 8K: delta = ceil(64K/8K) = 8 dummies
    df_free(p);
  });
  EXPECT_EQ(stats.dummy_threads, 8u);
}

TEST(SimEngine, NoDummiesUnderFifo) {
  RuntimeOptions o = sim_opts(SchedKind::Fifo, 2);
  o.mem_quota = 8 << 10;
  RunStats stats = run(o, [] {
    void* p = df_malloc(64 << 10);
    df_free(p);
  });
  EXPECT_EQ(stats.dummy_threads, 0u);
  EXPECT_EQ(stats.quota_preemptions, 0u);
}

// AsyncDF space bound: live threads <= serial depth + O(p) on a fork chain.
TEST(SimEngine, AsyncDfLiveThreadsScaleWithDepthNotBreadth) {
  auto tree = [] { figure1_tree(8); };  // 2^8-1 = 255 threads, depth 8
  const RunStats s1 = run(sim_opts(SchedKind::AsyncDf, 1), tree);
  EXPECT_LE(s1.max_live_threads, 8 + 2);
  const RunStats s8 = run(sim_opts(SchedKind::AsyncDf, 8), tree);
  // With p processors the bound gains an O(p * D) term; generous constant.
  EXPECT_LE(s8.max_live_threads, 8 + 8 * 8);
  // FIFO for contrast explodes to the full breadth.
  const RunStats f1 = run(sim_opts(SchedKind::Fifo, 1), tree);
  EXPECT_GE(f1.max_live_threads, 200);
}

TEST(SimEngine, BreakdownSumsToProcessorTime) {
  RunStats stats = run(sim_opts(SchedKind::AsyncDf, 4), [] { figure1_tree(5); });
  const double total = stats.breakdown.total_us();
  EXPECT_NEAR(total, 4 * stats.elapsed_us, 4 * stats.elapsed_us * 1e-6 + 0.01);
}

TEST(SimEngine, ElapsedGrowsWithAnnotatedWork) {
  auto timed = [](std::uint64_t ops) {
    return run(sim_opts(SchedKind::AsyncDf, 1), [ops] { annotate_work(ops); })
        .elapsed_us;
  };
  const double small = timed(1000);
  const double large = timed(101000);
  // 100k extra ops at 100 ops/us = +1000 us.
  EXPECT_NEAR(large - small, 1000.0, 1.0);
}

TEST(SimEngine, PressureSlowsWorkWhenHeapLarge) {
  auto timed = [](std::size_t alloc_bytes) {
    return run(sim_opts(SchedKind::Fifo, 1),
               [alloc_bytes] {
                 void* p = df_malloc(alloc_bytes);
                 annotate_work(1'000'000);
                 df_free(p);
               })
        .elapsed_us;
  };
  const double small_heap = timed(1 << 10);
  const double big_heap = timed(200 << 20);
  EXPECT_GT(big_heap, small_heap * 1.5);
}

TEST(SimEngine, PrioritiesGovernDispatchOrder) {
  // FIFO scheduler (which never preempts on spawn), one processor: main
  // enqueues a batch of mixed-priority threads, then blocks. The dispatcher
  // must drain strictly by priority level, FIFO within a level — the
  // POSIX-style discipline the paper's policy is designed to coexist with.
  std::vector<int> order;
  RuntimeOptions o = sim_opts(SchedKind::Fifo, 1);
  run(o, [&] {
    std::vector<Thread> threads;
    int tag = 0;
    for (int prio : {1, 5, 3, 7, 5, 1, 7}) {
      Attr attr;
      attr.priority = prio;
      const int id = tag++;
      threads.push_back(spawn(
          [&order, prio, id]() -> void* {
            order.push_back(prio * 100 + id);
            return nullptr;
          },
          attr));
    }
    for (auto& t : threads) join(t);
  });
  // Expected: both 7s (spawn order 3 then 6), both 5s (1 then 4), the 3,
  // then both 1s (0 then 5).
  const std::vector<int> expect = {703, 706, 501, 504, 302, 100, 105};
  EXPECT_EQ(order, expect);
}

TEST(SimEngine, MutexHandoffIsFifoAcrossPriorities) {
  // Mutex wakeups are FIFO handoffs (fairness), deliberately independent of
  // scheduler priority — document that with a test.
  std::vector<int> order;
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 1);
  run(o, [&] {
    Mutex mu;
    mu.lock();
    std::vector<Thread> threads;
    for (int prio : {1, 7, 3}) {
      Attr attr;
      attr.priority = prio;
      threads.push_back(spawn(
          [&order, &mu, prio]() -> void* {
            LockGuard lock(mu);
            order.push_back(prio);
            return nullptr;
          },
          attr));
    }
    mu.unlock();
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 7, 3}));  // arrival order, not priority
}

TEST(SimEngine, MutexWaiterLosesItsRetryAtMostOnce) {
  // unlock() releases the mutex and wakes its head waiter to retry, so a
  // locker that keeps running takes it first (a barge). The waiter that lost
  // its retry re-queues at the head, and the next unlock() hands the mutex
  // straight to it: the acquisitions run A, A, B, A.
  std::string order;
  bool b_blocked_first = false;
  run(sim_opts(SchedKind::AsyncDf, 1), [&] {
    Mutex mu;
    mu.lock();
    order += 'A';
    bool b_started = false;
    const Thread b = spawn([&]() -> void* {
      b_started = true;
      LockGuard lock(mu);
      order += 'B';
      return nullptr;
    });
    b_blocked_first = b_started;  // AsyncDF dived into B, which blocked
    mu.unlock();  // wakes B to retry
    mu.lock();    // A barges past the woken B
    order += 'A';
    yield();      // B retries, loses, re-queues at the head
    mu.unlock();  // hands the mutex to B before B runs
    EXPECT_TRUE(mu.held());
    mu.lock();    // A waits behind B
    order += 'A';
    mu.unlock();
    join(b);
  });
  EXPECT_TRUE(b_blocked_first);
  EXPECT_EQ(order, "AABA");
}

// The engine folds its virtual-time event lists as the run goes, filling in
// the trace samples the fold passes. One child at a time, each holding 64
// tracked bytes, over enough threads to fold: two threads are ever live, and
// every sample reads one or two live threads until the last, at completion,
// reads none.
TEST(SimEngine, FoldedTraceSamplesKeepExactLevels) {
  obs::Tracer tracer;
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 1);
  o.tracer = &tracer;
  const RunStats s = run(o, [] {
    for (int i = 0; i < (1 << 15); ++i) {
      join(spawn([]() -> void* {
        df_free(df_malloc(64));
        return nullptr;
      }));
    }
  });
  // A birth, a death, an alloc and a free per child: past the 2^16 pending
  // events that start a fold.
  EXPECT_GT(4 * s.threads_created, std::uint64_t{1} << 16);
  EXPECT_EQ(s.max_live_threads, 2);
  const std::vector<obs::Sample>& samples = tracer.samples();
  ASSERT_GT(samples.size(), 2u);
  const std::int64_t heap_base = samples.front().heap_bytes;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    EXPECT_GE(samples[i].live_threads, 1) << "sample " << i;
    EXPECT_LE(samples[i].live_threads, 2) << "sample " << i;
    EXPECT_GE(samples[i].heap_bytes, heap_base) << "sample " << i;
    EXPECT_LE(samples[i].heap_bytes, s.heap_peak) << "sample " << i;
  }
  EXPECT_EQ(samples.back().live_threads, 0);
  EXPECT_EQ(samples.back().heap_bytes, heap_base);
}

TEST(SimEngineDeath, DeadlockIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        run(sim_opts(SchedKind::AsyncDf, 2), [] {
          Mutex mu;
          mu.lock();
          mu.lock();  // self-deadlock is caught as "recursive"; use two threads
        });
      },
      "");
}

TEST(SimEngineDeath, CrossThreadDeadlockIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        run(sim_opts(SchedKind::Fifo, 2), [] {
          Mutex a, b;
          Semaphore both_locked(0);
          auto t = spawn([&]() -> void* {
            b.lock();
            both_locked.release();
            a.lock();  // waits forever
            return nullptr;
          });
          a.lock();
          both_locked.acquire();
          b.lock();  // classic AB-BA deadlock
          join(t);
        });
      },
      "[Dd]eadlock|DEADLOCK");
}

}  // namespace
}  // namespace dfth
