// Observer parity: a tracer and a profiler installed in the same run must
// see the same thread DAG. Both read it from the one edge call per event in
// obs/edges.h, so on either engine and under every policy the tracer's
// Fork/DummySpawn, Exit and Join events, the profiler's fiber count and the
// engine's own thread count agree, and every Block has its Wake.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

constexpr int kDepth = 6;
constexpr std::size_t kQuota = 4 << 10;

struct Shared {
  Mutex mu;
  Semaphore leaves_done{0};
  std::uint64_t nodes = 0;  ///< guarded by mu
};

// A binary fork tree. Every node allocates above the quota (so AsyncDF
// forks dummy threads first) and takes the shared Mutex; every leaf
// releases the Semaphore the bound waiter blocks on.
void node(Shared& s, int depth) {
  void* p = df_malloc(3 * kQuota);
  {
    LockGuard g(s.mu);
    ++s.nodes;
  }
  df_free(p);
  if (depth <= 1) {
    s.leaves_done.release();
    return;
  }
  Thread left = spawn([&s, depth]() -> void* {
    node(s, depth - 1);
    return nullptr;
  });
  Thread right = spawn([&s, depth]() -> void* {
    node(s, depth - 1);
    return nullptr;
  });
  join(left);
  join(right);
}

using Param = std::tuple<EngineKind, SchedKind>;

class ObserverParityTest : public ::testing::TestWithParam<Param> {};

TEST_P(ObserverParityTest, TracerAndProfilerSeeTheSameThreads) {
  const auto [engine, sched] = GetParam();
  obs::TraceConfig cfg;
  cfg.ring_capacity = 1 << 14;
  obs::Tracer tracer(cfg);
  obs::Profiler profiler;
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = 4;
  o.mem_quota = kQuota;
  o.default_stack_size = engine == EngineKind::Sim ? (8 << 10) : (64 << 10);
  o.tracer = &tracer;
  o.profiler = &profiler;

  constexpr int kLeaves = 1 << (kDepth - 1);
  Shared shared;
  const RunStats stats = run(o, [&shared] {
    Attr bound;
    bound.bound = true;
    Thread waiter = spawn(
        [&shared]() -> void* {
          for (int i = 0; i < kLeaves; ++i) shared.leaves_done.acquire();
          return nullptr;
        },
        bound);
    node(shared, kDepth);
    join(waiter);
  });
  EXPECT_EQ(shared.nodes, (1u << kDepth) - 1);
  if (sched == SchedKind::AsyncDf) {
    EXPECT_GT(stats.dummy_threads, 0u);
  }

  ASSERT_EQ(tracer.dropped(), 0u);
  std::uint64_t forks = 0, exits = 0, joins = 0, blocks = 0, wakes = 0;
  for (const obs::TraceEvent& ev : tracer.merged()) {
    switch (ev.kind) {
      case obs::EvKind::Fork:
      case obs::EvKind::DummySpawn: ++forks; break;
      case obs::EvKind::Exit: ++exits; break;
      case obs::EvKind::Join: ++joins; break;
      case obs::EvKind::Block: ++blocks; break;
      case obs::EvKind::Wake: ++wakes; break;
      default: break;
    }
  }
  // Main is the one thread with no Fork event.
  EXPECT_EQ(forks + 1, stats.threads_created);
  EXPECT_EQ(stats.profile.fibers, stats.threads_created);
  EXPECT_EQ(exits, stats.threads_created);
  // Every thread but main is joined exactly once: the tree's joins, main's
  // join of the waiter, and df_malloc's joins of its dummy threads.
  EXPECT_EQ(joins, stats.threads_created - 1);
  EXPECT_GT(blocks, 0u);
  EXPECT_EQ(wakes, blocks);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  return std::string(std::get<0>(info.param) == EngineKind::Sim ? "sim"
                                                                 : "real") +
         "_" + to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EnginesSchedulers, ObserverParityTest,
    ::testing::Combine(::testing::Values(EngineKind::Sim, EngineKind::Real),
                       ::testing::Values(SchedKind::Fifo, SchedKind::Lifo,
                                         SchedKind::AsyncDf,
                                         SchedKind::WorkSteal,
                                         SchedKind::ClusteredAdf,
                                         SchedKind::DfDeques)),
    param_name);

}  // namespace
}  // namespace dfth
