// Synchronization primitives under both engines, including real-engine
// stress with oversubscribed workers.
#include "runtime/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/api.h"
#include "runtime/engine.h"

namespace dfth {
namespace {

class SyncTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeOptions opts(SchedKind sched = SchedKind::AsyncDf, int nprocs = 4) const {
    RuntimeOptions o;
    o.engine = GetParam();
    o.sched = sched;
    o.nprocs = nprocs;
    o.default_stack_size = 8 << 10;
    return o;
  }
};

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

TEST_P(SyncTest, MutexProtectsCounter) {
  long long counter = 0;
  run(opts(), [&] {
    Mutex mu;
    std::vector<Thread> threads;
    for (int i = 0; i < 64; ++i) {
      threads.push_back(spawn([&]() -> void* {
        for (int j = 0; j < 100; ++j) {
          LockGuard lock(mu);
          ++counter;  // unsynchronized increment would race on RealEngine
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(counter, 64 * 100);
}

TEST_P(SyncTest, MutexTryLock) {
  run(opts(), [] {
    Mutex mu;
    EXPECT_TRUE(mu.try_lock());
    auto t = spawn([&mu]() -> void* {
      return reinterpret_cast<void*>(static_cast<intptr_t>(mu.try_lock()));
    });
    EXPECT_EQ(join(t), reinterpret_cast<void*>(0));  // held by main
    mu.unlock();
    EXPECT_TRUE(mu.try_lock());
    mu.unlock();
  });
}

TEST_P(SyncTest, CondVarProducerConsumer) {
  long long consumed_sum = 0;
  run(opts(), [&] {
    Mutex mu;
    CondVar nonempty, nonfull;
    std::vector<int> queue;
    constexpr std::size_t kCap = 4;
    constexpr int kItems = 500;
    bool done = false;

    auto consumer = spawn([&]() -> void* {
      long long sum = 0;
      while (true) {
        mu.lock();
        nonempty.wait_until(mu, [&] { return !queue.empty() || done; });
        if (queue.empty() && done) {
          mu.unlock();
          break;
        }
        sum += queue.back();
        queue.pop_back();
        nonfull.signal();
        mu.unlock();
      }
      consumed_sum = sum;
      return nullptr;
    });

    for (int i = 1; i <= kItems; ++i) {
      mu.lock();
      nonfull.wait_until(mu, [&] { return queue.size() < kCap; });
      queue.push_back(i);
      nonempty.signal();
      mu.unlock();
    }
    mu.lock();
    done = true;
    nonempty.broadcast();
    mu.unlock();
    join(consumer);
  });
  EXPECT_EQ(consumed_sum, 500LL * 501 / 2);
}

TEST_P(SyncTest, SemaphorePairSync) {
  // The Figure 3 "semaphore synchronization" pattern: two threads ping-pong.
  int turns = 0;
  run(opts(), [&] {
    Semaphore ping(0), pong(0);
    auto t = spawn([&]() -> void* {
      for (int i = 0; i < 50; ++i) {
        ping.acquire();
        ++turns;
        pong.release();
      }
      return nullptr;
    });
    for (int i = 0; i < 50; ++i) {
      ping.release();
      pong.acquire();
    }
    join(t);
  });
  EXPECT_EQ(turns, 50);
}

TEST_P(SyncTest, SemaphoreAsResourcePool) {
  std::atomic<int> in_section{0};
  std::atomic<int> max_seen{0};
  run(opts(SchedKind::AsyncDf, 8), [&] {
    Semaphore slots(3);
    std::vector<Thread> threads;
    for (int i = 0; i < 40; ++i) {
      threads.push_back(spawn([&]() -> void* {
        slots.acquire();
        const int now = in_section.fetch_add(1) + 1;
        int prev = max_seen.load();
        while (prev < now && !max_seen.compare_exchange_weak(prev, now)) {
        }
        yield();
        in_section.fetch_sub(1);
        slots.release();
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_LE(max_seen.load(), 3);
  EXPECT_GE(max_seen.load(), 1);
}

TEST_P(SyncTest, BarrierPhases) {
  constexpr int kThreads = 8, kPhases = 10;
  std::vector<int> phase_of(kThreads, 0);
  bool ok = true;
  run(opts(SchedKind::Fifo, 4), [&] {
    Barrier barrier(kThreads);
    Mutex check_mu;
    std::vector<Thread> threads;
    for (int id = 0; id < kThreads; ++id) {
      threads.push_back(spawn([&, id]() -> void* {
        for (int ph = 0; ph < kPhases; ++ph) {
          phase_of[id] = ph;
          barrier.arrive_and_wait();
          {
            // After the barrier, no thread may still be in an earlier phase.
            // (Scoped: blocking on the next barrier while holding the check
            // mutex would deadlock every other thread.)
            LockGuard lock(check_mu);
            for (int other = 0; other < kThreads; ++other) {
              if (phase_of[other] < ph) ok = false;
            }
          }
          barrier.arrive_and_wait();
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_TRUE(ok);
}

TEST_P(SyncTest, BarrierGenerationIsSafeToPollConcurrently) {
  // Regression: generation() used to be a plain load of a counter the last
  // arrival increments under the barrier's guard — a data race whenever an
  // observer polls it from another kernel thread (RealEngine). It is now an
  // acquire load of an atomic; this test keeps a poller racing against
  // arrivals on both engines.
  constexpr std::uint64_t kGenerations = 25;
  std::uint64_t observed = 0;
  run(opts(), [&] {
    Barrier barrier(2);
    Thread a = spawn([&]() -> void* {
      for (std::uint64_t i = 0; i < kGenerations; ++i) barrier.arrive_and_wait();
      return nullptr;
    });
    Thread b = spawn([&]() -> void* {
      for (std::uint64_t i = 0; i < kGenerations; ++i) barrier.arrive_and_wait();
      return nullptr;
    });
    while (barrier.generation() < kGenerations) yield();
    observed = barrier.generation();
    join(a);
    join(b);
  });
  EXPECT_EQ(observed, kGenerations);
}

TEST_P(SyncTest, OnceRunsExactlyOnce) {
  std::atomic<int> calls{0};
  run(opts(), [&] {
    Once once;
    std::vector<Thread> threads;
    for (int i = 0; i < 32; ++i) {
      threads.push_back(spawn([&]() -> void* {
        once.call([&] { calls.fetch_add(1); });
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
    EXPECT_TRUE(once.done());
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST_P(SyncTest, TlsPerThreadValues) {
  bool ok = true;
  run(opts(), [&] {
    const std::uint32_t key = tls_create_key();
    std::vector<Thread> threads;
    Mutex mu;
    for (int i = 0; i < 16; ++i) {
      threads.push_back(spawn([&, i]() -> void* {
        tls_set(key, reinterpret_cast<void*>(static_cast<intptr_t>(i + 1)));
        yield();
        const auto got = reinterpret_cast<intptr_t>(tls_get(key));
        if (got != i + 1) {
          LockGuard lock(mu);
          ok = false;
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_TRUE(ok);
}

TEST_P(SyncTest, MutexWithAsyncDfKeepsPlaceholders) {
  // Blocking locks compose with the space-efficient scheduler: the paper's
  // distinguishing feature vs Cilk-style systems. A fork tree where every
  // leaf takes a shared lock.
  long long counter = 0;
  RunStats stats = run(opts(SchedKind::AsyncDf, 8), [&] {
    Mutex mu;
    struct Rec {
      static void go(Mutex& mu, long long& counter, int depth) {
        if (depth == 0) {
          LockGuard lock(mu);
          ++counter;
          return;
        }
        auto left = spawn([&mu, &counter, depth]() -> void* {
          go(mu, counter, depth - 1);
          return nullptr;
        });
        auto right = spawn([&mu, &counter, depth]() -> void* {
          go(mu, counter, depth - 1);
          return nullptr;
        });
        join(left);
        join(right);
      }
    };
    Rec::go(mu, counter, 6);
  });
  EXPECT_EQ(counter, 64);
  EXPECT_EQ(stats.threads_created, 1u + 2u + 4u + 8u + 16u + 32u + 64u);
}

// ---------- timed waits (pthread_mutex_timedlock / pthread_cond_timedwait
// equivalents; timeouts ride the engines' claim-token protocol) ----------

constexpr std::uint64_t kShortNs = 2'000'000;     // 2 ms
constexpr std::uint64_t kGenerousNs = 20'000'000'000ull;  // 20 s: never expires

TEST_P(SyncTest, TryLockForUncontendedAcquiresImmediately) {
  run(opts(), [] {
    Mutex mu;
    EXPECT_TRUE(mu.try_lock_for(kShortNs));
    EXPECT_TRUE(mu.held());
    mu.unlock();
  });
}

TEST_P(SyncTest, TryLockForTimesOutWhileHeld) {
  bool got = true;
  std::uint64_t timeouts = 0;
  const RunStats stats = run(opts(), [&] {
    Mutex mu;
    mu.lock();
    auto t = spawn([&]() -> void* {
      // Held by main for the whole run: only the deadline can end this wait.
      got = mu.try_lock_for(kShortNs);
      return nullptr;
    });
    join(t);
    mu.unlock();
  });
  timeouts = stats.sync_timeouts;
  EXPECT_FALSE(got);
  EXPECT_EQ(timeouts, 1u);
  if (GetParam() == EngineKind::Sim) {
    // Virtual time must have advanced past the deadline — the idle horizon
    // includes sleeper deadlines, so the clock jumps there instead of
    // spinning.
    EXPECT_GE(stats.elapsed_us * 1000.0, static_cast<double>(kShortNs));
  }
}

TEST_P(SyncTest, TryLockForAcquiresWhenReleasedBeforeDeadline) {
  bool got = false;
  run(opts(), [&] {
    Mutex mu;
    Semaphore waiting(0);
    mu.lock();
    auto t = spawn([&]() -> void* {
      waiting.release();
      got = mu.try_lock_for(kGenerousNs);  // woken to retry, not timed out
      if (got) mu.unlock();
      return nullptr;
    });
    waiting.acquire();
    yield();  // give the waiter a chance to actually block
    mu.unlock();
    join(t);
  });
  EXPECT_TRUE(got);
}

TEST_P(SyncTest, TimedWaitTimesOutAndReacquiresTheMutex) {
  bool signaled = true;
  const RunStats stats = run(opts(), [&] {
    Mutex mu;
    CondVar cv;
    mu.lock();
    signaled = cv.timed_wait(mu, kShortNs);  // nobody will ever signal
    // pthread_cond_timedwait semantics: the mutex is held again even after a
    // timeout — proven by being able to hand it to another thread.
    auto t = spawn([&]() -> void* {
      return reinterpret_cast<void*>(static_cast<intptr_t>(mu.try_lock()));
    });
    EXPECT_EQ(join(t), reinterpret_cast<void*>(0));
    mu.unlock();
  });
  EXPECT_FALSE(signaled);
  EXPECT_EQ(stats.sync_timeouts, 1u);
}

TEST_P(SyncTest, TimedWaitReturnsTrueWhenSignaledBeforeDeadline) {
  bool signaled = false;
  int generation = 0;
  run(opts(), [&] {
    Mutex mu;
    CondVar cv;
    auto t = spawn([&]() -> void* {
      LockGuard lock(mu);
      while (generation == 0) {
        if (!cv.timed_wait(mu, kGenerousNs)) return nullptr;
      }
      signaled = true;
      return nullptr;
    });
    for (int i = 0; i < 100; ++i) yield();
    {
      LockGuard lock(mu);
      generation = 1;
      cv.signal();
    }
    join(t);
  });
  EXPECT_TRUE(signaled);
}

TEST_P(SyncTest, SemaphoreTryAcquireForTimesOutThenSucceeds) {
  bool starved = true, fed = false;
  const RunStats stats = run(opts(), [&] {
    Semaphore sem(0);
    starved = sem.try_acquire_for(kShortNs);  // no units: must expire
    sem.release();
    fed = sem.try_acquire_for(kGenerousNs);   // a unit is ready: no wait
  });
  EXPECT_FALSE(starved);
  EXPECT_TRUE(fed);
  EXPECT_EQ(stats.sync_timeouts, 1u);
}

TEST_P(SyncTest, ManyCompetingTimedLocksNeverLoseTheMutex) {
  // Stress the claim-token protocol: waiters time out while the owner keeps
  // locking and unlocking. Whatever the interleaving, every acquisition is
  // exclusive and every call ends in exactly one of {acquired, timed out}.
  long long counter = 0;
  run(opts(SchedKind::AsyncDf, 8), [&] {
    Mutex mu;
    std::vector<Thread> threads;
    for (int i = 0; i < 24; ++i) {
      threads.push_back(spawn([&]() -> void* {
        for (int j = 0; j < 20; ++j) {
          if (mu.try_lock_for(kShortNs / 4)) {
            ++counter;
            yield();
            mu.unlock();
          } else {
            yield();
          }
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_GT(counter, 0);
  EXPECT_LE(counter, 24 * 20);
}

TEST_P(SyncTest, TryLockForThatLosesItsRetryTimesOut) {
  // unlock() releases the mutex and wakes the blocked timed locker to retry,
  // but main, still running on the one processor, takes it back first (a
  // barge). The locker loses its retry, re-queues with the time it has left
  // and ends on the timer's claim: not held, one timeout.
  bool got = true;
  bool locker_holds = true;
  const RunStats stats = run(opts(SchedKind::AsyncDf, 1), [&] {
    Mutex mu;
    std::atomic<Tcb*> locker{nullptr};
    mu.lock();
    const Thread t = spawn([&]() -> void* {
      locker.store(engine()->current());
      got = mu.try_lock_for(kShortNs);
      locker_holds = mu.held_by(engine()->current());
      return nullptr;
    });
    for (;;) {
      const Tcb* l = locker.load();
      if (l && l->state.load() == ThreadState::Blocked) break;
      yield();
    }
    mu.unlock();
    mu.lock();
    join(t);
    EXPECT_TRUE(mu.held_by(engine()->current()));
    mu.unlock();
    // The loser left the wait list on its timeout: nobody is owed the mutex.
    EXPECT_FALSE(mu.held());
    EXPECT_TRUE(mu.try_lock());
    mu.unlock();
  });
  EXPECT_FALSE(got);
  EXPECT_FALSE(locker_holds);
  EXPECT_EQ(stats.sync_timeouts, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, SyncTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

}  // namespace
}  // namespace dfth
