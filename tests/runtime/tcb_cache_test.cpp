// Thread memory is O(live threads): a Tcb is recycled once its thread has
// exited and been joined or detached (runtime/engine.h), and a handle whose
// Tcb was recycled still fails loudly.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/api.h"
#include "runtime/engine.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

RuntimeOptions opts(EngineKind engine, SchedKind sched, int procs) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = procs;
  o.default_stack_size = 16 << 10;
  return o;
}

void* nothing() { return nullptr; }

/// Free Tcbs a run may hold beyond its live ones: a full cache on every
/// worker lane, one exit per worker between its section and its release,
/// and one spill in flight.
std::uint64_t cache_slack(int procs) {
  return static_cast<std::uint64_t>(procs) * (2 * kTcbBatch + 1) + kTcbBatch;
}

class TcbCache : public ::testing::TestWithParam<EngineKind> {};

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

TEST_P(TcbCache, SequentialSpawnJoinReusesOneTcb) {
  const RunStats s = run(opts(GetParam(), SchedKind::AsyncDf, 1), [] {
    for (int i = 0; i < 1000; ++i) join(spawn(nothing));
  });
  EXPECT_EQ(s.threads_created, 1001u);
  EXPECT_LE(s.tcbs_allocated, static_cast<std::uint64_t>(s.max_live_threads) + 2);
}

TEST_P(TcbCache, DetachAfterExitRecycles) {
  // serve's pattern: the parent dives into its child, which may exit before
  // the parent resumes and detaches it.
  const int procs = GetParam() == EngineKind::Real ? 4 : 1;
  std::atomic<int> ran{0};
  const RunStats s = run(opts(GetParam(), SchedKind::AsyncDf, procs), [&ran] {
    for (int i = 0; i < 2000; ++i) {
      detach(spawn([&ran]() -> void* {
        ran.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }));
    }
  });
  EXPECT_EQ(ran.load(), 2000);
  EXPECT_LE(s.tcbs_allocated,
            static_cast<std::uint64_t>(s.max_live_threads) + cache_slack(procs));
}

TEST_P(TcbCache, IdSurvivesJoinAndReuse) {
  run(opts(GetParam(), SchedKind::AsyncDf, 1), [] {
    Thread t = spawn(nothing);
    const std::uint64_t id = t.id();
    ASSERT_NE(id, 0u);
    join(t);
    EXPECT_EQ(t.id(), id);
    Thread u = spawn(nothing);  // reuses t's Tcb
    EXPECT_EQ(t.id(), id);
    EXPECT_GT(u.id(), id);
    join(u);
  });
}

TEST_P(TcbCache, SecondJoinOfReusedHandleDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts(GetParam(), SchedKind::AsyncDf, 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Thread t = spawn(nothing);
                     join(t);
                     join(spawn(nothing));  // reuses t's Tcb
                     join(t);
                   }),
               "thread joined twice");
}

TEST_P(TcbCache, JoinOfRecycledDetachedThreadDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts(GetParam(), SchedKind::AsyncDf, 1);
  EXPECT_DEATH(run(o,
                   [] {
                     // At p = 1 the child runs to its exit first, so the
                     // detach recycles it.
                     Thread t = spawn(nothing);
                     detach(t);
                     join(t);
                   }),
               "joined after a detach");
}

TEST_P(TcbCache, UnlockByReuserOfAnExitedOwnersTcbDies) {
  // A thread that exits holding a Mutex leaves it held; the thread that
  // reuses its Tcb is not the owner.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts(GetParam(), SchedKind::AsyncDf, 1);
  const RunStats s = run(o, [] {
    Mutex left_held;
    join(spawn([&left_held]() -> void* {
      left_held.lock();
      return nullptr;
    }));
    join(spawn(nothing));
  });
  EXPECT_EQ(s.tcbs_allocated, 2u);  // main's, and one both children used
  EXPECT_DEATH(run(o,
                   [] {
                     Mutex mu;
                     join(spawn([&mu]() -> void* {
                       mu.lock();
                       return nullptr;
                     }));
                     join(spawn([&mu]() -> void* {  // reuses the owner's Tcb
                       mu.unlock();
                       return nullptr;
                     }));
                   }),
               "Mutex::unlock by non-owner");
}

TEST_P(TcbCache, WaitByReuserOfAnExitedOwnersTcbDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts(GetParam(), SchedKind::AsyncDf, 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Mutex mu;
                     CondVar cv;
                     join(spawn([&mu]() -> void* {
                       mu.lock();
                       return nullptr;
                     }));
                     join(spawn([&mu, &cv]() -> void* {  // reuses its Tcb
                       cv.wait(mu);
                       return nullptr;
                     }));
                   }),
               "CondVar::wait caller does not hold the mutex");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TcbCache,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

// One producer fiber spawns detached children under FIFO, which never
// dives: the other workers run them, so their Tcbs are freed on the other
// lanes' caches and come back to the producer's through the spill list.
TEST(RealTcbCache, CrossLaneProducerConsumerStaysBounded) {
  constexpr int kProcs = 4;
  constexpr int kChildren = 5000;
  constexpr int kInFlight = 64;
  std::atomic<int> done{0};
  const RunStats s = run(opts(EngineKind::Real, SchedKind::Fifo, kProcs), [&done] {
    Attr attr;
    attr.detached = true;
    for (int i = 0; i < kChildren; ++i) {
      while (i - done.load(std::memory_order_acquire) >= kInFlight) yield();
      spawn(
          [&done]() -> void* {
            done.fetch_add(1, std::memory_order_release);
            return nullptr;
          },
          attr);
    }
  });
  EXPECT_EQ(done.load(), kChildren);
  EXPECT_EQ(s.threads_created, kChildren + 1u);
  EXPECT_LE(s.tcbs_allocated,
            static_cast<std::uint64_t>(s.max_live_threads) + cache_slack(kProcs));
}

// Thread memory is O(live): a million threads in one run cost no more process
// memory than a few.
TEST(RealTcbCache, MillionSpawnJoinsGrowMaxRssUnder16MiB) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "process-memory bound; a sanitizer build distorts it";
#endif
#if DFTH_RACE
  GTEST_SKIP() << "the race detector copies a clock as long as the thread "
                  "count at every fork, so 2^20 forks take O(n^2) time";
#endif
  auto max_rss_kib = [] {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
  };
  const long before = max_rss_kib();
  const RunStats s = run(opts(EngineKind::Real, SchedKind::AsyncDf, 1), [] {
    for (int i = 0; i < (1 << 20); ++i) join(spawn(nothing));
  });
  const long grown = max_rss_kib() - before;
  EXPECT_EQ(s.threads_created, (1u << 20) + 1);
  EXPECT_LT(grown, 16 << 10) << "max RSS grew by " << grown << " KiB";
}

}  // namespace
}  // namespace dfth
