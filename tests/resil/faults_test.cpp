// Unit tests for the deterministic fault injector (src/resil/faults.h).
//
// Every build compiles the DFTH_FAULT_* probes in, so the schedule logic is
// unit-testable here directly. The engine tests at the bottom check the
// run-time gate: a run with no fault_plan never reaches the injector.
#include "resil/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth::resil {
namespace {

/// Re-arms with `plan`, runs `n` evaluations of `site`, returns the
/// failure pattern as a bool vector, and disarms.
std::vector<bool> schedule_of(const FaultPlan& plan, FaultSite site, int n) {
  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  std::vector<bool> fired;
  fired.reserve(n);
  for (int i = 0; i < n; ++i) fired.push_back(inj.should_fail(site));
  inj.disarm();
  return fired;
}

TEST(FaultSiteNames, DottedNamesAreStable) {
  // These names appear in plans, logs, and the flight-recorder dump; CI
  // greps for them, so they are API.
  EXPECT_STREQ(to_string(FaultSite::kStackMmap), "stack.mmap");
  EXPECT_STREQ(to_string(FaultSite::kStackMprotect), "stack.mprotect");
  EXPECT_STREQ(to_string(FaultSite::kHeapAlloc), "heap.alloc");
  EXPECT_STREQ(to_string(FaultSite::kCtxCreate), "ctx.create");
  EXPECT_STREQ(to_string(FaultSite::kWorkerSpawn), "worker.spawn");
  EXPECT_STREQ(to_string(FaultSite::kSyncTimeout), "sync.timeout");
}

TEST(FaultPlan, DefaultPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_FALSE(plan.sites[i].enabled());
  }
}

TEST(FaultPlan, UniformHelpersEnableEverySite) {
  const FaultPlan every = FaultPlan::uniform_every(7, 3);
  const FaultPlan prob = FaultPlan::uniform_probability(7, 0.25);
  EXPECT_TRUE(every.enabled());
  EXPECT_TRUE(prob.enabled());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_EQ(every.sites[i].every_nth, 3u);
    EXPECT_DOUBLE_EQ(prob.sites[i].probability, 0.25);
  }
}

TEST(FaultInjector, DisarmedNeverFails) {
  auto& inj = FaultInjector::instance();
  inj.disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail(FaultSite::kHeapAlloc));
  }
}

TEST(FaultInjector, EveryNthFiresOnExactlyTheNth) {
  FaultPlan plan;
  plan.site(FaultSite::kHeapAlloc).every_nth = 3;
  const std::vector<bool> fired = schedule_of(plan, FaultSite::kHeapAlloc, 9);
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(fired, want);
}

TEST(FaultInjector, SkipFirstShiftsTheSchedule) {
  FaultPlan plan;
  plan.site(FaultSite::kCtxCreate).every_nth = 2;
  plan.site(FaultSite::kCtxCreate).skip_first = 3;
  // Evaluations 1..3 pass; thereafter every 2nd of the remainder fails.
  const std::vector<bool> fired = schedule_of(plan, FaultSite::kCtxCreate, 8);
  const std::vector<bool> want = {false, false, false, false,
                                  true,  false, true,  false};
  EXPECT_EQ(fired, want);
}

TEST(FaultInjector, MaxFailuresCapsInjection) {
  FaultPlan plan;
  plan.site(FaultSite::kSyncTimeout).every_nth = 1;
  plan.site(FaultSite::kSyncTimeout).max_failures = 2;
  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  EXPECT_TRUE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_TRUE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_EQ(inj.injected(FaultSite::kSyncTimeout), 2u);
  EXPECT_EQ(inj.evaluations(FaultSite::kSyncTimeout), 4u);
  inj.disarm();
}

TEST(FaultInjector, SameSeedSameBernoulliSchedule) {
  FaultPlan plan;
  plan.seed = 0xfee1;
  plan.site(FaultSite::kStackMmap).probability = 0.3;
  const std::vector<bool> a = schedule_of(plan, FaultSite::kStackMmap, 200);
  const std::vector<bool> b = schedule_of(plan, FaultSite::kStackMmap, 200);
  EXPECT_EQ(a, b);
  // A 0.3 Bernoulli over 200 draws fires at least once and misses at least
  // once with probability ~1 - 2e-31; a violation means the stream is broken.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 200);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPlan a = FaultPlan::uniform_probability(1, 0.5);
  FaultPlan b = FaultPlan::uniform_probability(2, 0.5);
  EXPECT_NE(schedule_of(a, FaultSite::kHeapAlloc, 128),
            schedule_of(b, FaultSite::kHeapAlloc, 128));
}

TEST(FaultInjector, SitesDrawFromIndependentStreams) {
  // Probing one site must not perturb another site's draw sequence: run
  // heap.alloc alone, then interleaved with stack.mmap probes, and compare.
  FaultPlan plan = FaultPlan::uniform_probability(0xabcd, 0.4);
  const std::vector<bool> alone = schedule_of(plan, FaultSite::kHeapAlloc, 64);

  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  std::vector<bool> interleaved;
  for (int i = 0; i < 64; ++i) {
    (void)inj.should_fail(FaultSite::kStackMmap);
    interleaved.push_back(inj.should_fail(FaultSite::kHeapAlloc));
  }
  inj.disarm();
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjector, ArmResetsCountersDisarmPreservesThem) {
  auto& inj = FaultInjector::instance();
  FaultPlan plan;
  plan.site(FaultSite::kWorkerSpawn).every_nth = 1;
  inj.arm(plan);
  ASSERT_TRUE(inj.armed());
  EXPECT_TRUE(inj.should_fail(FaultSite::kWorkerSpawn));
  inj.on_recovered(FaultSite::kWorkerSpawn);
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  // Counters survive disarm so a finished run's schedule is inspectable...
  EXPECT_EQ(inj.evaluations(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.injected(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.recovered(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.injected_total(), 1u);
  EXPECT_EQ(inj.recovered_total(), 1u);
  // ...and the next arm starts from zero.
  inj.arm(plan);
  EXPECT_EQ(inj.evaluations_total(), 0u);
  EXPECT_EQ(inj.injected_total(), 0u);
  EXPECT_EQ(inj.recovered_total(), 0u);
  inj.disarm();
}

TEST(FaultInjector, SummaryNamesEverySite) {
  auto& inj = FaultInjector::instance();
  inj.arm(FaultPlan::uniform_every(1, 1));
  (void)inj.should_fail(FaultSite::kHeapAlloc);
  inj.disarm();
  std::string out;
  inj.append_summary(&out);
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_NE(out.find(to_string(static_cast<FaultSite>(i))), std::string::npos)
        << out;
  }
  EXPECT_NE(out.find("injected=1"), std::string::npos) << out;
}

// A program that passes every fault site: fresh stacks and fiber contexts
// (spawn), tracked heap allocations (df_malloc), timed waits
// (Mutex::try_lock_for) and, on Real, worker threads.
RunStats run_probed_program(EngineKind engine, const FaultPlan* plan) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 2;
  o.default_stack_size = 8 << 10;
  o.fault_plan = plan;
  return run(o, [] {
    static Mutex m;
    std::vector<Thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.push_back(spawn([]() -> void* {
        df_free(df_malloc(256));
        if (m.try_lock_for(1000)) m.unlock();
        return nullptr;
      }));
    }
    for (Thread& t : threads) join(t);
  });
}

class FaultGateTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FaultGateTest, NoPlanMeansNoEvaluations) {
  auto& inj = FaultInjector::instance();
  const std::uint64_t before = inj.evaluations_total();
  const RunStats stats = run_probed_program(GetParam(), nullptr);
  EXPECT_EQ(inj.evaluations_total(), before);
  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(stats.faults_injected, 0u);

  // Control: the same program under an inert plan (no site enabled) does
  // reach the probes, so the zero above comes from the gate.
  const FaultPlan inert;
  const RunStats armed = run_probed_program(GetParam(), &inert);
  EXPECT_GT(inj.evaluations_total(), 0u);
  EXPECT_EQ(armed.faults_injected, 0u);
  EXPECT_FALSE(inj.armed());
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FaultGateTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth::resil
