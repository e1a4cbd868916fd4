// RwLock semantics on both engines: shared readers, exclusive writers,
// writer preference, and stress.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

class RwLockTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeOptions opts(int nprocs = 4,
                      SchedKind sched = SchedKind::AsyncDf) const {
    RuntimeOptions o;
    o.engine = GetParam();
    o.sched = sched;
    o.nprocs = nprocs;
    o.default_stack_size = 8 << 10;
    return o;
  }
};

TEST_P(RwLockTest, ReadersShareWritersExclude) {
  std::atomic<int> concurrent_readers{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> writer_alone_ok{true};
  long long value = 0;

  // Handshake: in its first round every reader waits inside its read
  // section until all readers have entered, and the writers start only
  // then (a waiting writer would hold new readers out). The readers'
  // overlap is then a fact of the program, not of the host's timing.
  constexpr int kThreads = 24;
  constexpr int kReaders = kThreads - kThreads / 4;
  std::atomic<int> entered{0};

  // FIFO here on purpose: a yielding thread goes to the queue tail, so
  // reader sections interleave observably (AsyncDF's depth-first order
  // would legitimately resume the yielder immediately).
  run(opts(8, SchedKind::Fifo), [&] {
    RwLock lock;
    std::vector<Thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      const bool is_writer = (i % 4 == 0);
      threads.push_back(spawn([&, is_writer]() -> void* {
        if (is_writer) {
          while (entered.load() < kReaders) yield();
        }
        for (int round = 0; round < 20; ++round) {
          if (is_writer) {
            RwLock::WriteGuard guard(lock);
            if (concurrent_readers.load() != 0) writer_alone_ok = false;
            ++value;  // would race without exclusivity
            yield();
            ++value;
          } else {
            RwLock::ReadGuard guard(lock);
            const int now = concurrent_readers.fetch_add(1) + 1;
            int prev = max_readers.load();
            while (prev < now && !max_readers.compare_exchange_weak(prev, now)) {
            }
            if (round == 0) {
              entered.fetch_add(1);
              while (entered.load() < kReaders) yield();
            } else {
              yield();
            }
            concurrent_readers.fetch_sub(1);
          }
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });

  EXPECT_TRUE(writer_alone_ok.load());
  EXPECT_EQ(value, 2LL * 6 * 20);  // 6 writers x 20 rounds x 2 increments
  EXPECT_GE(max_readers.load(), 2) << "readers never actually overlapped";
}

TEST_P(RwLockTest, TryVariantsReflectState) {
  run(opts(1), [] {
    RwLock lock;
    EXPECT_TRUE(lock.try_rdlock());
    EXPECT_TRUE(lock.try_rdlock());   // readers share
    EXPECT_FALSE(lock.try_wrlock());  // blocked by readers
    lock.rdunlock();
    lock.rdunlock();
    EXPECT_TRUE(lock.try_wrlock());
    EXPECT_FALSE(lock.try_rdlock());  // blocked by writer
    EXPECT_FALSE(lock.try_wrlock());
    lock.wrunlock();
  });
}

TEST_P(RwLockTest, WriterPreferenceBlocksNewReaders) {
  // Reader holds the lock; a writer queues; a second reader that arrives
  // later must wait behind the writer (no writer starvation).
  std::vector<int> order;
  run(opts(2), [&] {
    RwLock lock;
    Semaphore reader_in(0);
    lock.rdlock();

    auto writer = spawn([&]() -> void* {
      reader_in.release();  // writer is about to block on wrlock
      lock.wrlock();
      order.push_back(1);  // writer first
      lock.wrunlock();
      return nullptr;
    });
    reader_in.acquire();
    for (int i = 0; i < 20; ++i) yield();  // let the writer reach wrlock

    auto late_reader = spawn([&]() -> void* {
      lock.rdlock();
      order.push_back(2);  // reader after the writer
      lock.rdunlock();
      return nullptr;
    });
    for (int i = 0; i < 20; ++i) yield();
    lock.rdunlock();  // release the initial read hold

    join(writer);
    join(late_reader);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST_P(RwLockTest, StressCountsStayConsistent) {
  long long shared_value = 0;
  std::atomic<long long> read_sum{0};
  run(opts(8), [&] {
    RwLock lock;
    std::vector<Thread> threads;
    for (int i = 0; i < 32; ++i) {
      threads.push_back(spawn([&, i]() -> void* {
        for (int round = 0; round < 50; ++round) {
          if ((i + round) % 5 == 0) {
            RwLock::WriteGuard guard(lock);
            ++shared_value;
          } else {
            RwLock::ReadGuard guard(lock);
            read_sum.fetch_add(shared_value, std::memory_order_relaxed);
          }
        }
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(shared_value, 32LL * 50 / 5);
  EXPECT_GE(read_sum.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, RwLockTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth
