// The hot-lock guard: one Mutex around a counter at every leaf of a
// 2^14-leaf spawn tree, on Real AsyncDF and WorkSteal. A lock convoy (a
// mutex handed to a waiter that is not running, with every later locker
// queued behind it) once made such a tree take 5-19 s at p = 4 against
// ~40 ms at p = 1 on a 4-core host. The best of three p = 4 runs must stay
// within 4x the best of three p = 1 runs.
//
// It bounds wall-clock time, so its ctest runs serially (RUN_SERIAL), and
// it skips itself in sanitizer builds, whose instrumentation distorts the
// timings it compares.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

constexpr int kDepth = 14;

void tree(int depth, Mutex& mu, long long& counter) {
  if (depth == 0) {
    LockGuard lock(mu);
    ++counter;
    return;
  }
  Thread left = spawn([depth, &mu, &counter]() -> void* {
    tree(depth - 1, mu, counter);
    return nullptr;
  });
  tree(depth - 1, mu, counter);
  join(left);
}

/// The best of three runs' wall time at `procs`, in seconds.
double best_of_three(SchedKind sched, int procs) {
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = sched;
  o.nprocs = procs;
  o.default_stack_size = 16 << 10;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    long long counter = 0;
    const auto t0 = std::chrono::steady_clock::now();
    run(o, [&counter] {
      Mutex mu;
      tree(kDepth, mu, counter);
    });
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(counter, 1LL << kDepth);
    best = std::min(best, dt.count());
  }
  return best;
}

class HotLock : public ::testing::TestWithParam<SchedKind> {};

TEST_P(HotLock, FourProcsStayWithinFourTimesOneProc) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "wall-clock bound; a sanitizer build distorts it";
#endif
  const double p1 = best_of_three(GetParam(), 1);
  const double p4 = best_of_three(GetParam(), 4);
  RecordProperty("p1_ms", std::to_string(p1 * 1e3));
  RecordProperty("p4_ms", std::to_string(p4 * 1e3));
  EXPECT_LE(p4, 4 * p1) << "p = 1 best " << p1 * 1e3 << " ms, p = 4 best "
                        << p4 * 1e3 << " ms";
}

INSTANTIATE_TEST_SUITE_P(Real, HotLock,
                         ::testing::Values(SchedKind::AsyncDf, SchedKind::WorkSteal),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth
