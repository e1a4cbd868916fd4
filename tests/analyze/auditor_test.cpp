// Scheduler-invariant auditor tests: the AuditedScheduler decorator driven
// directly at the Tcb level (clean runs stay silent, a deliberately broken
// scheduler is caught), plus whole-engine property runs, where
// make_scheduler installs the decorator because the test binaries run with
// the validation switch on (tests/validation_on.cpp).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "analyze/auditor.h"
#include "analyze/lock_graph.h"
#include "core/asyncdf_sched.h"
#include "core/fifo_sched.h"
#include "runtime/api.h"
#include "util/rng.h"

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

/// Tcb factory + the engine's calling contract, as in sched_policy_test.
struct Harness {
  std::vector<std::unique_ptr<Tcb>> tcbs;
  std::uint64_t next_id = 1;

  Tcb* make(int priority = 0) {
    tcbs.push_back(std::make_unique<Tcb>(next_id++));
    tcbs.back()->attr.priority = priority;
    return tcbs.back().get();
  }

  bool spawn(Scheduler& s, Tcb* parent, Tcb* child, int proc = 0) {
    child->parent = parent;
    const bool preempt = s.dives(parent, child);
    s.register_thread(parent, child);
    if (preempt) {
      if (parent) {
        parent->state.store(ThreadState::Ready, std::memory_order_relaxed);
        s.on_ready(parent, proc);
      }
      child->state.store(ThreadState::Running, std::memory_order_relaxed);
    } else {
      child->state.store(ThreadState::Ready, std::memory_order_relaxed);
      s.on_ready(child, proc);
    }
    return preempt;
  }

  Tcb* pick(Scheduler& s, int proc = 0, std::uint64_t now = kInf) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.pick_next(proc, now, &earliest);
    if (t) t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }

  void exit_thread(Scheduler& s, Tcb* t) {
    t->state.store(ThreadState::Done, std::memory_order_relaxed);
    s.unregister_thread(t);
  }
};

// ---------- decorator unit tests (independent of the validation switch) ----------

TEST(InvariantAuditor, CleanAsyncDfRunIsSilent) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  EXPECT_TRUE(h.spawn(s, nullptr, root));  // root runs
  Tcb* a = h.make();
  Tcb* b = h.make();
  EXPECT_TRUE(h.spawn(s, root, a));  // root preempted (Ready), a runs
  EXPECT_TRUE(h.spawn(s, a, b));     // a preempted (Ready), b runs
  h.exit_thread(s, b);
  // Serial order was b, a, root; the remaining ready set drains left to
  // right.
  EXPECT_EQ(h.pick(s), a);
  h.exit_thread(s, a);
  EXPECT_EQ(h.pick(s), root);
  h.exit_thread(s, root);
  EXPECT_EQ(h.pick(s), nullptr);
  EXPECT_EQ(s.auditor().violations(), 0u);
  EXPECT_GT(s.auditor().steps(), 0u);
}

// A bound thread is scheduled by the OS, never registered with the policy,
// and may still spawn unbound children (the engine never dives from it); an
// unbound parent must be registered.
TEST(InvariantAuditor, OnlyABoundParentMayBeUnregistered) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* bound = h.make();
  bound->attr.bound = true;
  s.register_thread(bound, h.make());
  EXPECT_EQ(s.auditor().violations(), 0u);
  s.register_thread(h.make(), h.make());
  EXPECT_GE(s.auditor().violations(), 1u);
}

TEST(InvariantAuditor, ForwardsSchedulerSurface) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  EXPECT_EQ(s.kind(), SchedKind::AsyncDf);
  EXPECT_TRUE(s.needs_quota());
  EXPECT_EQ(s.lock_domain(3), 0);
  EXPECT_NE(s.underlying(), &s);  // unwraps to the real policy
  EXPECT_NE(dynamic_cast<AsyncDfScheduler*>(s.underlying()), nullptr);
}

TEST(InvariantAuditor, DoubleRegistrationCaught) {
  // A FIFO inner keeps the duplicate registration from corrupting AsyncDF's
  // order list before the auditor can object.
  analyze::AuditedScheduler s(std::make_unique<FifoScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  ASSERT_EQ(s.auditor().violations(), 0u);
  s.register_thread(nullptr, root);  // engine bug: registered twice
  EXPECT_GE(s.auditor().violations(), 1u);
}

TEST(InvariantAuditor, OnReadyForNonReadyThreadCaught) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  // Engine bug: announcing readiness while the thread is still Running.
  s.on_ready(root, 0);
  EXPECT_GE(s.auditor().violations(), 1u);
}

// A scheduler with a deliberately wrong dispatch rule: it returns the
// *rightmost* ready thread, violating the paper's leftmost-dispatch
// invariant. The auditor must flag every such pick.
class RightmostAsyncDf : public AsyncDfScheduler {
 public:
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override {
    Tcb* leftmost = AsyncDfScheduler::pick_next(proc, now, earliest);
    if (!leftmost) return nullptr;
    const OrderList& list = order_list(leftmost->attr.priority);
    Tcb* last_eligible = leftmost;
    for (const OrderNode* node = list.front();
         node != nullptr && node != list.end_sentinel(); node = node->next) {
      auto* t = static_cast<Tcb*>(node->owner);
      if (t->state.load(std::memory_order_relaxed) != ThreadState::Ready &&
          t != leftmost) {
        continue;
      }
      if (t->ready_at_ns <= now) last_eligible = t;
    }
    return last_eligible;
  }
};

TEST(InvariantAuditor, NonLeftmostPickCaught) {
  analyze::AuditedScheduler s(std::make_unique<RightmostAsyncDf>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  root->state.store(ThreadState::Running, std::memory_order_relaxed);
  h.spawn(s, nullptr, root);
  Tcb* child = h.make();
  h.spawn(s, root, child);  // serial order: child, root — both now Ready
  child->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(child, 0);
  ASSERT_EQ(s.auditor().violations(), 0u);
  // The broken policy returns root (rightmost); the auditor must object.
  EXPECT_EQ(h.pick(s), root);
  EXPECT_GE(s.auditor().violations(), 1u);
}

TEST(InvariantAuditor, QuotaOverrunCaught) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  root->state.store(ThreadState::Running, std::memory_order_relaxed);
  h.spawn(s, nullptr, root);
  const std::size_t quota = 4096;
  // Within quota: silent.
  s.auditor().on_alloc(root, 1000, quota);
  s.auditor().on_alloc(root, 3000, quota);
  EXPECT_EQ(s.auditor().violations(), 0u);
  // 4000 bytes allocated, next small alloc is still legal (quota not yet
  // exceeded before it)...
  s.auditor().on_alloc(root, 1000, quota);
  EXPECT_EQ(s.auditor().violations(), 0u);
  // ...but now 5000 > K are on the books: an engine that fails to preempt
  // before the next allocation is caught.
  s.auditor().on_alloc(root, 8, quota);
  EXPECT_GE(s.auditor().violations(), 1u);
}

TEST(InvariantAuditor, OversizedAllocNeedsDummyCredit) {
  analyze::AuditedScheduler s(std::make_unique<AsyncDfScheduler>());
  s.auditor().set_abort_on_violation(false);
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  const std::size_t quota = 4096;
  // m > K with no dummy threads forked first: violation.
  s.auditor().on_alloc(root, 3 * quota, quota);
  EXPECT_EQ(s.auditor().violations(), 1u);
  // The engine quota-preempts root after the oversized allocation and later
  // re-dispatches it, which grants a fresh quota.
  root->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(root, 0);
  ASSERT_EQ(h.pick(s), root);
  // Fork the δ = 3 dummies (binary tree: each registration credits root).
  Tcb* d1 = h.make();
  d1->is_dummy = true;
  h.spawn(s, root, d1);
  Tcb* d2 = h.make();
  d2->is_dummy = true;
  h.spawn(s, d1, d2);  // nested dummy still credits the non-dummy ancestor
  Tcb* d3 = h.make();
  d3->is_dummy = true;
  h.spawn(s, d1, d3);
  s.auditor().on_alloc(root, 3 * quota, quota);
  EXPECT_EQ(s.auditor().violations(), 1u);  // no new violation
}

// ---------- whole-engine property runs (validated runs) ----------

RuntimeOptions sim_opts(SchedKind sched, int nprocs, std::size_t quota) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = sched;
  o.nprocs = nprocs;
  o.default_stack_size = 8 << 10;
  o.mem_quota = quota;
  return o;
}

/// Adversarial fork tree: skewed fan-out, allocations straddling the quota
/// (forcing dummy-thread trees), blocking joins at every level.
struct AdversarialProgram {
  std::uint64_t seed;
  int max_depth;
  std::size_t quota;

  long long run_node(Rng rng, int depth) const {
    long long sum = static_cast<long long>(rng.next_below(100));
    annotate_work(20 + rng.next_below(200));
    void* held = nullptr;
    if (rng.next_bool(0.7)) {
      // Half the draws exceed the quota, exercising the δ dummy-thread path.
      held = df_malloc(quota / 2 + rng.next_below(quota * 3));
    }
    if (depth < max_depth) {
      const int kids = 1 + static_cast<int>(rng.next_below(4));
      std::vector<Thread> threads;
      for (int k = 0; k < kids; ++k) {
        Rng child_rng = rng.fork_stream(static_cast<std::uint64_t>(k) + 1);
        threads.push_back(spawn([this, child_rng, depth]() -> void* {
          run_node(child_rng, depth + 1);
          return nullptr;
        }));
      }
      for (Thread& t : threads) join(t);
    }
    df_free(held);
    return sum;
  }

  void operator()() const { run_node(Rng(seed), 0); }
};

class AuditedEngineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditedEngineTest, AsyncDfSimRunSatisfiesAllInvariants) {
  const std::size_t quota = 8 << 10;
  AdversarialProgram prog{GetParam(), 5, quota};
  std::uint64_t steps = 0;
  // Violations abort the process by default, so completing the run at all
  // certifies every audited step; steps proves the auditor was live.
  run(sim_opts(SchedKind::AsyncDf, 4, quota), [&] {
    prog();
    analyze::InvariantAuditor* aud = analyze::active_auditor();
    ASSERT_NE(aud, nullptr);
    EXPECT_EQ(aud->violations(), 0u);
    steps = aud->steps();
  });
  EXPECT_GT(steps, 0u);
}

TEST_P(AuditedEngineTest, OtherPoliciesPassTheGenericChecks) {
  const std::size_t quota = 8 << 10;
  AdversarialProgram prog{GetParam(), 4, quota};
  for (SchedKind sched : {SchedKind::Fifo, SchedKind::Lifo, SchedKind::WorkSteal}) {
    run(sim_opts(sched, 4, quota), [&] {
      prog();
      analyze::InvariantAuditor* aud = analyze::active_auditor();
      ASSERT_NE(aud, nullptr);
      EXPECT_EQ(aud->violations(), 0u) << to_string(sched);
    });
  }
}

TEST_P(AuditedEngineTest, RealEngineRunSatisfiesAllInvariants) {
  const std::size_t quota = 8 << 10;
  AdversarialProgram prog{GetParam(), 4, quota};
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.mem_quota = quota;
  std::uint64_t steps = 0;
  run(o, [&] {
    prog();
    analyze::InvariantAuditor* aud = analyze::active_auditor();
    ASSERT_NE(aud, nullptr);
    steps = aud->steps();
  });
  EXPECT_GT(steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditedEngineTest, ::testing::Values(7, 19, 42));

}  // namespace
}  // namespace dfth
