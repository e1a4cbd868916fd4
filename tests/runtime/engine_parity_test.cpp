// Engine parity: SimEngine stands in for RealEngine in every figure, so at
// one processor, where neither engine has a placement choice, both must
// count the same transitions — the same spawns, dummy threads, dispatches,
// quota preemptions and deadline expirations. And a cancel token's deadline
// must expire at dispatch on both engines, whether the token's thread comes
// in by a fork dive, by a queued pick or by an inline run.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "resil/faults.h"
#include "runtime/api.h"
#include "runtime/engine.h"
#include "threads/cancel.h"

namespace dfth {
namespace {

constexpr int kDepth = 6;
constexpr std::size_t kBigAlloc = 48 << 10;  // over the default K of 32 KiB

RuntimeOptions options(EngineKind engine, SchedKind sched, int procs) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = procs;
  o.default_stack_size = 64 << 10;
  return o;
}

// Every third leaf allocates over K (AsyncDF forks dummy threads first and
// the allocation exhausts the leaf's quota); the others allocate 256 B.
void tree(int depth, int leaf) {
  if (depth == 0) {
    df_free(df_malloc(leaf % 3 == 0 ? kBigAlloc : 256));
    return;
  }
  Thread left = spawn([depth, leaf]() -> void* {
    tree(depth - 1, leaf);
    return nullptr;
  });
  Thread right = spawn([depth, leaf]() -> void* {
    tree(depth - 1, leaf + (1 << (depth - 1)));
    return nullptr;
  });
  join(left);
  join(right);
}

struct DeadlineSeen {
  std::atomic<int> child_ran{0}, grandchild_ran{0};
  std::atomic<int> child_cancelled{0}, grandchild_cancelled{0};
};

// A child whose token's deadline (1 ns on the engine clock) has passed by
// its first dispatch; it spawns and joins one grandchild, which inherits
// the token. Both still run, and both see the cancellation.
void deadline_child(CancelToken* token, DeadlineSeen* seen) {
  Attr attr;
  attr.cancel = token;
  join(spawn(
      [seen]() -> void* {
        seen->child_ran.fetch_add(1);
        if (cancel_requested()) seen->child_cancelled.fetch_add(1);
        join(spawn([seen]() -> void* {
          seen->grandchild_ran.fetch_add(1);
          if (cancel_requested()) seen->grandchild_cancelled.fetch_add(1);
          return nullptr;
        }));
        return nullptr;
      },
      attr));
}

void expect_deadline_seen(const DeadlineSeen& seen) {
  EXPECT_EQ(seen.child_ran.load(), 1);
  EXPECT_EQ(seen.grandchild_ran.load(), 1);
  EXPECT_EQ(seen.child_cancelled.load(), 1);
  EXPECT_EQ(seen.grandchild_cancelled.load(), 1);
}

class EngineParity : public ::testing::TestWithParam<SchedKind> {};

TEST_P(EngineParity, TransitionCountersAgreeAtOneProc) {
  RunStats stats[2];
  for (EngineKind engine : {EngineKind::Sim, EngineKind::Real}) {
    CancelToken token;
    token.deadline_ns = 1;
    DeadlineSeen seen;
    stats[engine == EngineKind::Real] =
        run(options(engine, GetParam(), 1), [&] {
          tree(kDepth, 0);
          deadline_child(&token, &seen);
        });
    expect_deadline_seen(seen);
  }
  const RunStats& sim = stats[0];
  const RunStats& real = stats[1];
  EXPECT_EQ(sim.threads_created, real.threads_created);
  EXPECT_EQ(sim.dummy_threads, real.dummy_threads);
  EXPECT_EQ(sim.dispatches, real.dispatches);
  EXPECT_EQ(sim.quota_preemptions, real.quota_preemptions);
  EXPECT_EQ(sim.deadline_expirations, real.deadline_expirations);
  EXPECT_EQ(sim.max_live_threads, real.max_live_threads);
  // Main, the tree's 126 nodes, the token child and its grandchild.
  const std::uint64_t plain = 1 + 126 + 2;
  if (GetParam() == SchedKind::AsyncDf) {
    EXPECT_GT(sim.dummy_threads, 0u);
    EXPECT_GT(sim.quota_preemptions, 0u);
    EXPECT_EQ(sim.threads_created, plain + sim.dummy_threads);
  } else {
    EXPECT_EQ(sim.threads_created, plain);
  }
  EXPECT_EQ(sim.deadline_expirations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Scheds, EngineParity,
                         ::testing::Values(SchedKind::AsyncDf, SchedKind::Fifo),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(to_string(info.param));
                         });

// AsyncDF dives into the token child (at p = 1 and p = 4); FIFO queues it
// and a later pick dispatches it. With `inline_run`, a ctx.create plan fails
// the token child's context, so it runs inline on main's stack.
using DeadlineParam = std::tuple<EngineKind, SchedKind, int, bool>;

// Fails the first context a run's fibers draw after main's: Real's main
// draws the site first; Sim's never does.
resil::FaultPlan inline_first_child(EngineKind engine) {
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kCtxCreate) = {
      .every_nth = 1, .skip_first = engine == EngineKind::Real ? 1u : 0u,
      .max_failures = 1};
  return plan;
}

class DeadlineAtDispatch : public ::testing::TestWithParam<DeadlineParam> {};

TEST_P(DeadlineAtDispatch, ExpiresOnceAndBothThreadsDrain) {
  const auto [engine, sched, procs, inline_run] = GetParam();
  RuntimeOptions o = options(engine, sched, procs);
  const resil::FaultPlan plan = inline_first_child(engine);
  if (inline_run) o.fault_plan = &plan;
  CancelToken token;
  token.deadline_ns = 1;
  DeadlineSeen seen;
  const RunStats stats = run(o, [&] { deadline_child(&token, &seen); });
  EXPECT_EQ(stats.deadline_expirations, 1u);
  EXPECT_EQ(stats.inline_runs, inline_run ? 1u : 0u);
  EXPECT_TRUE(token.is_cancelled());
  // An inline child's body runs as its parent, but in the child's scope.
  expect_deadline_seen(seen);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesPaths, DeadlineAtDispatch,
    ::testing::Values(DeadlineParam{EngineKind::Sim, SchedKind::AsyncDf, 1, false},
                      DeadlineParam{EngineKind::Sim, SchedKind::AsyncDf, 4, false},
                      DeadlineParam{EngineKind::Sim, SchedKind::Fifo, 1, false},
                      DeadlineParam{EngineKind::Sim, SchedKind::AsyncDf, 1, true},
                      DeadlineParam{EngineKind::Real, SchedKind::AsyncDf, 1, false},
                      DeadlineParam{EngineKind::Real, SchedKind::AsyncDf, 4, false},
                      DeadlineParam{EngineKind::Real, SchedKind::Fifo, 1, false},
                      DeadlineParam{EngineKind::Real, SchedKind::AsyncDf, 4, true}),
    [](const ::testing::TestParamInfo<DeadlineParam>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_inline" : "");
    });

// An inline child runs as its parent, in its own cancellation scope: a
// child it spawns inherits its token, and its parent's scope is back once
// it returns.
class InlineChildScope : public ::testing::TestWithParam<EngineKind> {};

TEST_P(InlineChildScope, ItsChildrenInheritItsToken) {
  const EngineKind kind = GetParam();
  RuntimeOptions o = options(kind, SchedKind::AsyncDf, kind == EngineKind::Real ? 4 : 1);
  const resil::FaultPlan plan = inline_first_child(kind);
  o.fault_plan = &plan;
  CancelToken token;  // no deadline: only the scope is under test
  const CancelToken* grandchild_scope = nullptr;
  const CancelToken* main_scope_after = &token;
  const RunStats stats = run(o, [&] {
    Attr attr;
    attr.cancel = &token;
    join(spawn(
        [&]() -> void* {
          join(spawn([&]() -> void* {
            grandchild_scope = engine()->current()->cancel;
            return nullptr;
          }));
          return nullptr;
        },
        attr));
    main_scope_after = engine()->current()->cancel;
  });
  EXPECT_EQ(stats.inline_runs, 1u);
  EXPECT_EQ(grandchild_scope, &token);
  EXPECT_EQ(main_scope_after, nullptr);
}

INSTANTIATE_TEST_SUITE_P(Engines, InlineChildScope,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth
