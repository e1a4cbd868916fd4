// End-to-end recovery tests: programs complete *correctly* while the resil
// injector fails stacks, heap allocations, fiber contexts, worker spawns and
// timed waits on a deterministic schedule, armed through
// RuntimeOptions::fault_plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "resil/faults.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "space/stack_pool.h"

namespace dfth {
namespace {

class RecoveryTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeOptions opts(const resil::FaultPlan* plan) const {
    RuntimeOptions o;
    o.engine = GetParam();
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 4;
    o.default_stack_size = 8 << 10;
    o.fault_plan = plan;
    return o;
  }
};

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

/// Fork tree of depth `d`; every leaf df_mallocs a scratch block and adds its
/// index. The checksum proves no work was lost or duplicated under faults.
long long fork_tree_sum(int depth, int leaf_base) {
  if (depth == 0) {
    auto* scratch = static_cast<long long*>(df_malloc(256));
    EXPECT_NE(scratch, nullptr);
    scratch[0] = leaf_base;
    const long long v = scratch[0];
    df_free(scratch);
    return v;
  }
  long long left_v = 0, right_v = 0;
  auto left = spawn([&]() -> void* {
    left_v = fork_tree_sum(depth - 1, leaf_base);
    return nullptr;
  });
  auto right = spawn([&]() -> void* {
    right_v = fork_tree_sum(depth - 1, leaf_base + (1 << (depth - 1)));
    return nullptr;
  });
  join(left);
  join(right);
  return left_v + right_v;
}

// Leaves are numbered 0..2^d-1, so the tree sums to 2^d * (2^d - 1) / 2.
constexpr int kDepth = 6;
constexpr long long kLeaves = 1 << kDepth;
constexpr long long kWantSum = kLeaves * (kLeaves - 1) / 2;

TEST_P(RecoveryTest, HeapFaultsEveryThirdAllocationStillSumsCorrectly) {
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kHeapAlloc).every_nth = 3;
  long long sum = -1;
  const RunStats stats = run(opts(&plan), [&] { sum = fork_tree_sum(kDepth, 0); });
  EXPECT_EQ(sum, kWantSum);
  // Every third tracked allocation failed; the OOM-preempt retry absorbed
  // every one of them.
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.oom_preemptions, 0u);
}

TEST_P(RecoveryTest, CtxCreateFaultsRunChildrenInline) {
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kCtxCreate).every_nth = 2;
  long long sum = -1;
  const RunStats stats = run(opts(&plan), [&] { sum = fork_tree_sum(kDepth, 0); });
  EXPECT_EQ(sum, kWantSum);
  EXPECT_GT(stats.inline_runs, 0u);
  EXPECT_EQ(stats.faults_injected, stats.faults_recovered);
}

TEST_P(RecoveryTest, StackMmapAlwaysFailingFallsBackToHeapStacks) {
  // Drain the cache first so acquires actually reach the mmap site, and use
  // an off-default size so no other test's cached stacks satisfy us.
  StackPool::instance().trim();
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kStackMmap).probability = 1.0;
  RuntimeOptions o = opts(&plan);
  o.default_stack_size = 24 << 10;
  long long sum = -1;
  const RunStats stats = run(o, [&] { sum = fork_tree_sum(kDepth, 0); });
  EXPECT_EQ(sum, kWantSum);
  EXPECT_GT(stats.faults_injected, 0u);
  StackPool::instance().trim();
}

TEST_P(RecoveryTest, SyncTimeoutFaultForcesOneTimedOutLock) {
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kSyncTimeout).every_nth = 1;
  plan.site(resil::FaultSite::kSyncTimeout).max_failures = 1;
  bool first = true, second = false;
  run(opts(&plan), [&] {
    Mutex mu;
    // Uncontended, so only an injected fault can make this fail...
    first = mu.try_lock_for(1'000'000);
    // ...and max_failures=1 means the retry must succeed.
    second = mu.try_lock_for(1'000'000);
    if (second) mu.unlock();
  });
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

// A heap that can never satisfy the request. One allocation request draws
// the heap.alloc site once, so the injected failure covers the first
// attempt only; every retry then fails for real (a size no allocator can
// serve). K = 0 keeps df_malloc from forking a dummy tree for the request.
TEST_P(RecoveryTest, DfTryMallocReportsNoMemWhenEveryRetryFails) {
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kHeapAlloc).probability = 1.0;
  RuntimeOptions o = opts(&plan);
  o.mem_quota = 0;
  DfStatus status = DfStatus::kOk;
  void* p = reinterpret_cast<void*>(1);
  const RunStats stats = run(o, [&] {
    p = df_try_malloc(std::size_t{1} << 62, &status);
  });
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(status, DfStatus::kNoMem);
  // The engine exhausted its bounded OOM-preempt retries before giving up.
  EXPECT_GT(stats.oom_preemptions, 0u);
}

TEST(RecoveryRealTest, WorkerSpawnFaultsDegradeToFewerWorkers) {
  // Fail every worker-spawn probe: only worker 0 (exempt by design — a
  // 0-worker engine cannot run anything) survives, and the run degrades to
  // serial execution rather than dying.
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kWorkerSpawn).every_nth = 1;
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  o.fault_plan = &plan;
  long long sum = -1;
  const RunStats stats = run(o, [&] { sum = fork_tree_sum(kDepth, 0); });
  EXPECT_EQ(sum, kWantSum);
  EXPECT_GE(stats.faults_injected, 3u);  // workers 1..3 each probed once
  EXPECT_EQ(stats.faults_recovered, stats.faults_injected);
}

TEST(RecoveryDeterminismTest, SameSeedSamePlanIsByteForByteRepeatableOnSim) {
  // SimEngine serializes all fibers onto one host thread, so an identical
  // FaultPlan must produce the identical failure schedule and therefore
  // identical stats — the property that makes every recovery path testable.
  resil::FaultPlan plan = resil::FaultPlan::uniform_probability(0xd06, 0.05);
  plan.site(resil::FaultSite::kWorkerSpawn) = {};  // real-engine-only site
  auto one_run = [&plan] {
    StackPool::instance().trim();
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 4;
    o.default_stack_size = 8 << 10;
    o.fault_plan = &plan;
    long long sum = -1;
    RunStats s = run(o, [&] { sum = fork_tree_sum(kDepth, 0); });
    EXPECT_EQ(sum, kWantSum);
    return s;
  };
  const RunStats a = one_run();
  const RunStats b = one_run();
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.inline_runs, b.inline_runs);
  EXPECT_EQ(a.oom_preemptions, b.oom_preemptions);
  EXPECT_EQ(a.threads_created, b.threads_created);
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_DOUBLE_EQ(a.elapsed_us, b.elapsed_us);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, RecoveryTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

}  // namespace
}  // namespace dfth
