// Engine-integration tests for the tracing hooks: a traced SimEngine run
// records the events and samples the figures need, a traced RealEngine run
// keeps per-lane timestamps monotone, and composing a tracer with a run
// changes none of the results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "obs/trace.h"
#include "runtime/api.h"

namespace dfth {
namespace {

void fork_tree(int depth) {
  annotate_work(20);
  if (depth <= 1) return;
  auto left = spawn([depth]() -> void* {
    fork_tree(depth - 1);
    return nullptr;
  });
  auto right = spawn([depth]() -> void* {
    fork_tree(depth - 1);
    return nullptr;
  });
  join(left);
  join(right);
}

RuntimeOptions base_opts(EngineKind engine, SchedKind sched) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = 4;
  o.default_stack_size = engine == EngineKind::Sim ? (8 << 10) : (64 << 10);
  return o;
}

TEST(TraceHooksTest, SimRunRecordsEventsAndSamples) {
  obs::Tracer tracer;
  RuntimeOptions o = base_opts(EngineKind::Sim, SchedKind::AsyncDf);
  o.tracer = &tracer;
  const RunStats stats = run(o, [] { fork_tree(6); });

  EXPECT_EQ(tracer.lanes(), o.nprocs);
  EXPECT_GT(tracer.event_count(), 0u);

  // Every spawn is a Fork event; the root thread is created without one.
  EXPECT_EQ(tracer.counter(obs::Counter::Forks) +
                tracer.counter(obs::Counter::DummySpawns),
            stats.threads_created - 1);
  EXPECT_EQ(tracer.counter(obs::Counter::Dispatches), stats.dispatches);
  EXPECT_EQ(tracer.counter(obs::Counter::Exits), stats.threads_created);

  // The time series brackets the run and tops out at the recorded peak.
  ASSERT_FALSE(tracer.samples().empty());
  std::int64_t peak_live = 0, peak_ready = 0;
  std::uint64_t prev_ts = 0;
  for (const obs::Sample& s : tracer.samples()) {
    EXPECT_GE(s.ts_ns, prev_ts);
    prev_ts = s.ts_ns;
    peak_live = std::max(peak_live, s.live_threads);
    peak_ready = std::max(peak_ready, s.ready);
  }
  EXPECT_GT(peak_live, 0);
  EXPECT_LE(peak_live, stats.max_live_threads);
  EXPECT_GT(peak_ready, 0);
}

TEST(TraceHooksTest, SimTraceShowsFifoLivePeakAboveAsyncDf) {
  auto peak_live = [](SchedKind sched) {
    obs::Tracer tracer;
    RuntimeOptions o = base_opts(EngineKind::Sim, sched);
    o.nprocs = 1;
    o.tracer = &tracer;
    run(o, [] { fork_tree(9); });
    std::int64_t peak = 0;
    for (const obs::Sample& s : tracer.samples()) {
      peak = std::max(peak, s.live_threads);
    }
    return peak;
  };
  // The Figure 1 shape: FIFO keeps the whole frontier live, depth-first
  // order keeps roughly one root-to-leaf path.
  EXPECT_GT(peak_live(SchedKind::Fifo), 4 * peak_live(SchedKind::AsyncDf));
}

TEST(TraceHooksTest, SimDispatchTimestampsMonotonePerLane) {
  obs::Tracer tracer;
  RuntimeOptions o = base_opts(EngineKind::Sim, SchedKind::WorkSteal);
  o.tracer = &tracer;
  run(o, [] { fork_tree(7); });
  for (int lane = 0; lane < tracer.lanes(); ++lane) {
    std::uint64_t prev = 0;
    for (const obs::TraceEvent& e : tracer.lane_events(lane)) {
      EXPECT_GE(e.ts_ns, prev) << "lane " << lane;
      prev = e.ts_ns;
    }
  }
}

TEST(TraceHooksTest, RealRunTracesWithMonotoneWorkerLanes) {
  obs::Tracer tracer;
  RuntimeOptions o = base_opts(EngineKind::Real, SchedKind::AsyncDf);
  o.tracer = &tracer;
  const RunStats stats = run(o, [] { fork_tree(6); });

  // nprocs worker lanes plus the shared external lane.
  EXPECT_EQ(tracer.lanes(), o.nprocs + 1);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.counter(obs::Counter::Forks), stats.threads_created - 1);

  // Worker lanes are single-writer: steady-clock timestamps are monotone.
  for (int lane = 0; lane < o.nprocs; ++lane) {
    std::uint64_t prev = 0;
    for (const obs::TraceEvent& e : tracer.lane_events(lane)) {
      EXPECT_GE(e.ts_ns, prev) << "lane " << lane;
      prev = e.ts_ns;
    }
  }
}

TEST(TraceHooksTest, TracerDoesNotChangeSimResults) {
  auto stats_for = [](obs::Tracer* tracer) {
    RuntimeOptions o = base_opts(EngineKind::Sim, SchedKind::AsyncDf);
    o.tracer = tracer;
    return run(o, [] { fork_tree(6); });
  };
  obs::Tracer tracer;
  const RunStats traced = stats_for(&tracer);
  const RunStats plain = stats_for(nullptr);
  // Tracing is observation only: virtual time and all aggregates match.
  EXPECT_EQ(traced.elapsed_us, plain.elapsed_us);
  EXPECT_EQ(traced.threads_created, plain.threads_created);
  EXPECT_EQ(traced.max_live_threads, plain.max_live_threads);
  EXPECT_EQ(traced.heap_peak, plain.heap_peak);
  EXPECT_EQ(traced.dispatches, plain.dispatches);
}

TEST(TraceHooksTest, TracerIsReusableAcrossRuns) {
  obs::Tracer tracer;
  RuntimeOptions o = base_opts(EngineKind::Sim, SchedKind::AsyncDf);
  o.tracer = &tracer;
  run(o, [] { fork_tree(5); });
  const std::size_t first = tracer.event_count();
  run(o, [] { fork_tree(5); });
  // begin_run clears the previous session instead of appending to it.
  EXPECT_EQ(tracer.event_count(), first);
}

}  // namespace
}  // namespace dfth
