// Property tests over randomized programs: the paper's structural claims
// checked against generated fork/join/allocation DAGs rather than the
// hand-written benchmarks.
//
//  * AsyncDF space: live threads stay near the serial depth, and heap stays
//    within S1 + c·p·K·D for generated allocating programs, on the simulator
//    and on the real engine.
//  * FIFO live threads dominate AsyncDF's on every generated program.
//  * All schedulers compute identical results (schedule-invariance).
//  * Simulated time is deterministic and Brent-consistent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/profile.h"
#include "runtime/api.h"
#include "util/rng.h"

namespace dfth {
namespace {

RuntimeOptions sim_opts(SchedKind sched, int nprocs, std::size_t quota = 32 << 10) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = sched;
  o.nprocs = nprocs;
  o.default_stack_size = 8 << 10;
  o.mem_quota = quota;
  return o;
}

/// A random fork/join/alloc program: a tree whose shape, work, and
/// allocation sizes are drawn deterministically from `seed`. Returns a
/// checksum so schedule-invariance is observable.
struct RandomProgram {
  std::uint64_t seed;
  int max_depth;

  long long run_node(Rng rng, int depth) const {
    long long sum = static_cast<long long>(rng.next_below(1000));
    annotate_work(50 + rng.next_below(400));

    // Allocation held across the children (the pattern the space bound is
    // about).
    void* held = nullptr;
    if (rng.next_bool(0.6)) {
      held = df_malloc(512 + rng.next_below(48 << 10));
    }

    if (depth < max_depth) {
      const int kids = 1 + static_cast<int>(rng.next_below(3));
      std::vector<Thread> threads;
      std::vector<long long> results(static_cast<std::size_t>(kids), 0);
      for (int k = 0; k < kids; ++k) {
        Rng child_rng = rng.fork_stream(static_cast<std::uint64_t>(k) + 1);
        auto* slot = &results[static_cast<std::size_t>(k)];
        threads.push_back(spawn([this, child_rng, depth, slot]() -> void* {
          *slot = run_node(child_rng, depth + 1);
          return nullptr;
        }));
      }
      // Interleave a bit of post-fork work (parent continuation).
      annotate_work(100);
      for (auto& t : threads) join(t);
      for (long long r : results) sum += r;
    } else {
      annotate_work(200 + rng.next_below(800));
    }
    df_free(held);
    return sum;
  }

  long long operator()() const { return run_node(Rng(seed), 0); }
};

class RandomProgramTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramTest, AllSchedulersComputeTheSameResult) {
  RandomProgram prog{GetParam(), 6};
  long long reference = 0;
  bool first = true;
  for (SchedKind sched : {SchedKind::Fifo, SchedKind::Lifo, SchedKind::AsyncDf,
                          SchedKind::WorkSteal, SchedKind::ClusteredAdf,
                          SchedKind::DfDeques}) {
    long long result = 0;
    run(sim_opts(sched, 4), [&] { result = prog(); });
    if (first) {
      reference = result;
      first = false;
    } else {
      EXPECT_EQ(result, reference) << to_string(sched);
    }
  }
}

TEST_P(RandomProgramTest, AsyncDfLiveThreadsNearSerialDepth) {
  RandomProgram prog{GetParam(), 6};
  // Ground truth from the work/span profiler: d is the deepest fork nesting.
  obs::Profiler prof;
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 1);
  o.profiler = &prof;
  const RunStats serial = run(o, [&] { prog(); });
  const std::uint32_t d = serial.profile.fork_depth;

  // p = 1: live threads bounded by the serial fork depth plus a small
  // constant (dummy-thread trees for >K allocations add up to ~log(delta)).
  EXPECT_LE(serial.max_live_threads, static_cast<std::int64_t>(d) + 8)
      << "depth " << d;

  // p = 8: the bound gains an O(p) factor on the depth term.
  const RunStats par = run(sim_opts(SchedKind::AsyncDf, 8), [&] { prog(); });
  EXPECT_LE(par.max_live_threads, static_cast<std::int64_t>(8 * (d + 8)));

  // FIFO, for contrast, holds essentially every thread at once on the same
  // program (every fiber the run created, dummies included).
  const RunStats fifo = run(sim_opts(SchedKind::Fifo, 1), [&] { prog(); });
  EXPECT_GE(fifo.max_live_threads, par.max_live_threads);
  EXPECT_GE(fifo.max_live_threads,
            static_cast<std::int64_t>(serial.profile.fibers) / 2);
}

TEST_P(RandomProgramTest, AsyncDfHeapWithinS1PlusPkd) {
  RandomProgram prog{GetParam(), 6};
  const std::size_t quota = 16 << 10;
  // S1: serial depth-first execution's heap peak; D: the segment count of
  // its critical path, from the work/span profiler.
  obs::Profiler prof;
  RuntimeOptions o = sim_opts(SchedKind::AsyncDf, 1, quota);
  o.profiler = &prof;
  const RunStats serial = run(o, [&] { prog(); });
  const auto s1 = serial.heap_peak;
  const std::uint32_t span_segments = serial.profile.span_segments;

  for (int p : {2, 4, 8}) {
    const RunStats stats = run(sim_opts(SchedKind::AsyncDf, p, quota), [&] { prog(); });
    // S1 + c * p * K * D with c = 2 and D = span segment count (an upper
    // proxy for the depth of the premature subcomputation frontier).
    const auto bound =
        s1 + static_cast<std::int64_t>(2ull * static_cast<std::uint64_t>(p) *
                                       quota * span_segments);
    EXPECT_LE(stats.heap_peak, bound) << "p=" << p << " S1=" << s1;
    // And the useful direction: far below FIFO on the same p.
    const RunStats fifo = run(sim_opts(SchedKind::Fifo, p, quota), [&] { prog(); });
    EXPECT_LE(stats.heap_peak, fifo.heap_peak * 110 / 100) << "p=" << p;
  }

  // The real engine at p = 4 posts its readies and applies them at the
  // domain's next section. The bound holds for any timing of readies.
  RuntimeOptions real = sim_opts(SchedKind::AsyncDf, 4, quota);
  real.engine = EngineKind::Real;
  const RunStats stats = run(real, [&] { prog(); });
  const auto bound = s1 + static_cast<std::int64_t>(2ull * 4 * quota * span_segments);
  EXPECT_LE(stats.heap_peak, bound) << "real p=4 S1=" << s1;
}

TEST_P(RandomProgramTest, SimulationIsDeterministic) {
  RandomProgram prog{GetParam(), 5};
  RunStats a = run(sim_opts(SchedKind::ClusteredAdf, 6), [&] { prog(); });
  RunStats b = run(sim_opts(SchedKind::ClusteredAdf, 6), [&] { prog(); });
  EXPECT_DOUBLE_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.heap_peak, b.heap_peak);
  EXPECT_EQ(a.max_live_threads, b.max_live_threads);
  EXPECT_EQ(a.dispatches, b.dispatches);
}

TEST_P(RandomProgramTest, MoreProcessorsNeverMuchSlower) {
  RandomProgram prog{GetParam(), 6};
  double prev = run(sim_opts(SchedKind::AsyncDf, 1), [&] { prog(); }).elapsed_us;
  for (int p : {2, 4, 8}) {
    const double now = run(sim_opts(SchedKind::AsyncDf, p), [&] { prog(); }).elapsed_us;
    EXPECT_LE(now, prev * 1.3) << "p=" << p;
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace dfth
