// One source per counter: a traced run's 23 counters and 3 histograms
// each equal the count their owner keeps — the trace rings for event
// kinds, the tracked heap and the stack pool for memory, RunStats for the
// engine's own tallies and the fault injector for faults — on both engines,
// under AsyncDF and work stealing. Each run comes after an untraced warm-up
// run, so a counter that leaked counts across runs would show here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace.h"
#include "resil/faults.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "space/stack_pool.h"
#include "space/tracked_heap.h"

namespace dfth {
namespace {

using obs::Counter;
using obs::EvKind;
using obs::Hist;

/// What the program itself knows it did.
struct Program {
  std::atomic<std::uint64_t> joins{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
};

/// A binary fork tree whose nodes each allocate one block below the
/// tracer's alloc-event threshold and one at it. Neither exceeds the 4 KiB
/// floor an OOM recovery can shrink the quota to, so only the program's
/// first allocation forks dummy threads (AsyncDF).
void tree(Program* p, int depth) {
  annotate_work(10);
  const std::size_t sizes[2] = {64u * static_cast<std::size_t>(depth + 1), 4096};
  void* blocks[2];
  for (int i = 0; i < 2; ++i) {
    blocks[i] = df_malloc(sizes[i]);
    p->alloc_bytes.fetch_add(sizes[i], std::memory_order_relaxed);
  }
  if (depth > 0) {
    Thread l = spawn([p, depth]() -> void* {
      tree(p, depth - 1);
      return nullptr;
    });
    Thread r = spawn([p, depth]() -> void* {
      tree(p, depth - 1);
      return nullptr;
    });
    join(l);
    join(r);
    p->joins.fetch_add(2, std::memory_order_relaxed);
  }
  for (void* b : blocks) df_free(b);
}

void program(Program* p) {
  void* big = df_malloc(40000);  // > mem_quota, before any heap fault
  p->alloc_bytes.fetch_add(40000, std::memory_order_relaxed);
  Semaphore never(0);
  EXPECT_FALSE(never.try_acquire_for(1000));  // times out: one SyncTimeout
  tree(p, 5);
  df_free(big);
}

using Param = std::tuple<EngineKind, SchedKind>;

class CounterSources : public ::testing::TestWithParam<Param> {
 protected:
  RuntimeOptions options() const {
    RuntimeOptions o;
    o.engine = std::get<0>(GetParam());
    o.sched = std::get<1>(GetParam());
    o.nprocs = 4;
    o.mem_quota = 16 << 10;
    o.default_stack_size = 64 << 10;
    return o;
  }
};

std::uint64_t events_of(const std::vector<obs::TraceEvent>& events, EvKind k,
                        std::uint64_t arg = ~std::uint64_t{0}) {
  std::uint64_t n = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == k && (arg == ~std::uint64_t{0} || e.arg == arg)) ++n;
  }
  return n;
}

TEST_P(CounterSources, EveryCounterEqualsItsOwnersCount) {
  const bool sim = std::get<0>(GetParam()) == EngineKind::Sim;
  const bool adf = std::get<1>(GetParam()) == SchedKind::AsyncDf;
  // A context-creation fault runs some children inline; a heap fault makes
  // the engine OOM-preempt and retry. Both are recovered.
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kCtxCreate) = {.every_nth = 5, .skip_first = 1};
  plan.site(resil::FaultSite::kHeapAlloc) = {.every_nth = 7};

  // The untraced warm-up leaves cached stacks and heap history behind.
  RuntimeOptions o = options();
  {
    Program warm;
    run(o, [&] { program(&warm); });
  }

  obs::Tracer tr;
  o.tracer = &tr;
  o.fault_plan = &plan;
  Program p;
  StackPool& pool = StackPool::instance();
  TrackedHeap& heap = TrackedHeap::instance();
  const std::uint64_t fresh0 = pool.fresh_count(), reused0 = pool.reuse_count();
  const std::uint64_t allocs0 = heap.alloc_count(), frees0 = heap.free_count();
  const RunStats s = run(o, [&] { program(&p); });
  const auto& inj = resil::FaultInjector::instance();

  ASSERT_EQ(tr.dropped(), 0u);
  const std::vector<obs::TraceEvent> ev = tr.merged();
  auto c = [&](Counter k) { return tr.counter(k); };

  // Event kinds: the rings, and RunStats where it keeps the same tally.
  EXPECT_EQ(c(Counter::Forks), events_of(ev, EvKind::Fork));
  EXPECT_EQ(c(Counter::DummySpawns), events_of(ev, EvKind::DummySpawn));
  EXPECT_EQ(c(Counter::Forks) + c(Counter::DummySpawns), s.threads_created - 1);
  EXPECT_EQ(c(Counter::DummySpawns), s.dummy_threads);
  EXPECT_EQ(c(Counter::Joins), events_of(ev, EvKind::Join));
  EXPECT_EQ(c(Counter::Joins), p.joins.load() + s.dummy_threads);  // df_malloc joins its dummies
  EXPECT_EQ(c(Counter::Dispatches), events_of(ev, EvKind::Dispatch));
  EXPECT_EQ(c(Counter::Dispatches), s.dispatches);
  EXPECT_EQ(c(Counter::Preempts), events_of(ev, EvKind::Preempt));
  EXPECT_EQ(c(Counter::QuotaExhausts), events_of(ev, EvKind::QuotaExhaust));
  EXPECT_EQ(c(Counter::QuotaExhausts), s.quota_preemptions);
  EXPECT_EQ(c(Counter::Steals), events_of(ev, EvKind::Steal));
  EXPECT_EQ(c(Counter::Steals), s.steals);
  EXPECT_EQ(c(Counter::Blocks), events_of(ev, EvKind::Block));
  EXPECT_EQ(c(Counter::Wakes), events_of(ev, EvKind::Wake));
  EXPECT_EQ(c(Counter::Exits), events_of(ev, EvKind::Exit));
  EXPECT_EQ(c(Counter::Exits), s.threads_created);

  // Ready and pick: every non-dive, non-inline dispatch is a pick, and the
  // ready set ends empty.
  const std::uint64_t dives = events_of(ev, EvKind::Preempt, obs::kPreemptForkDive);
  const std::uint64_t picks = s.dispatches - dives - s.inline_runs;
  EXPECT_EQ(c(Counter::ReadyPops), picks);
  EXPECT_EQ(c(Counter::ReadyPushes), c(Counter::ReadyPops));

  // Memory: the stack pool's and the tracked heap's own counts.
  // A real engine restarts the pool's counts (RunStats reads them); the
  // simulator's model stands in its RunStats, so the pool keeps counting.
  EXPECT_EQ(c(Counter::StacksFresh), pool.fresh_count() - (sim ? fresh0 : 0));
  EXPECT_EQ(c(Counter::StacksReused), pool.reuse_count() - (sim ? reused0 : 0));
  if (!sim) {
    EXPECT_EQ(c(Counter::StacksFresh), s.stacks_fresh);
    EXPECT_EQ(c(Counter::StacksReused), s.stacks_reused);
  }
  EXPECT_EQ(c(Counter::Allocs), heap.alloc_count() - allocs0);
  EXPECT_EQ(c(Counter::Frees), heap.free_count() - frees0);
  EXPECT_EQ(c(Counter::AllocBytes), p.alloc_bytes.load());
  EXPECT_EQ(c(Counter::FreeBytes), p.alloc_bytes.load());

  // RunStats and the fault injector.
  EXPECT_EQ(c(Counter::OomPreempts), s.oom_preemptions);
  EXPECT_EQ(c(Counter::InlineRuns), s.inline_runs);
  EXPECT_EQ(c(Counter::SyncTimeouts), s.sync_timeouts);
  EXPECT_EQ(c(Counter::FaultsInjected), s.faults_injected);
  EXPECT_EQ(c(Counter::FaultsInjected), inj.injected_total());
  EXPECT_EQ(c(Counter::FaultsRecovered), s.faults_recovered);
  EXPECT_EQ(c(Counter::FaultsRecovered), inj.recovered_total());

  // Histograms: a gap per pick; the waits need Sim's pick-time clock.
  EXPECT_EQ(tr.hist(Hist::DispatchGapNs).count(), picks);
  EXPECT_EQ(tr.hist(Hist::ReadyWaitNs).count(), sim ? picks : 0u);
  EXPECT_EQ(tr.hist(Hist::StealLatencyNs).count(), sim ? s.steals : 0u);

  // Nothing above is vacuous.
  for (Counter k : {Counter::Forks, Counter::Joins, Counter::Dispatches,
                    Counter::Preempts, Counter::Blocks, Counter::Wakes,
                    Counter::Exits, Counter::ReadyPushes, Counter::StacksReused,
                    Counter::Allocs, Counter::OomPreempts, Counter::InlineRuns,
                    Counter::SyncTimeouts, Counter::FaultsInjected,
                    Counter::FaultsRecovered}) {
    EXPECT_GT(c(k), 0u) << obs::to_string(k);
  }
  EXPECT_GT(picks, 0u);
  if (adf) {
    EXPECT_GT(c(Counter::DummySpawns), 0u);
    EXPECT_GT(c(Counter::QuotaExhausts), 0u);
  }
  if (sim && !adf) {
    EXPECT_GT(c(Counter::Steals), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesPolicies, CounterSources,
    ::testing::Combine(::testing::Values(EngineKind::Sim, EngineKind::Real),
                       ::testing::Values(SchedKind::AsyncDf, SchedKind::WorkSteal)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param));
    });

// A Real run with a tracer and no profiler: the gap is recorded on the
// tracer's own branch, once per dispatch that is not a fork dive.
TEST(CounterSourcesReal, TracerAloneRecordsEveryDispatchGap) {
  for (SchedKind sched : {SchedKind::Fifo, SchedKind::AsyncDf}) {
    RuntimeOptions o;
    o.engine = EngineKind::Real;
    o.sched = sched;
    o.nprocs = 4;
    obs::Tracer tr;
    o.tracer = &tr;
    Program p;
    const RunStats s = run(o, [&] { tree(&p, 5); });
    const std::uint64_t dives =
        events_of(tr.merged(), EvKind::Preempt, obs::kPreemptForkDive);
    EXPECT_GT(tr.hist(Hist::DispatchGapNs).count(), 0u) << to_string(sched);
    EXPECT_EQ(tr.hist(Hist::DispatchGapNs).count(), s.dispatches - dives)
        << to_string(sched);
  }
}

}  // namespace
}  // namespace dfth
