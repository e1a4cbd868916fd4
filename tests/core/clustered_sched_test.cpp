// Clustered AsyncDF (§6 future work): per-cluster ordering, migration only
// when a cluster runs dry, and end-to-end behavior through the simulator.
#include "core/clustered_sched.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "runtime/api.h"

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

struct Harness {
  std::vector<std::unique_ptr<Tcb>> tcbs;
  std::uint64_t next_id = 1;

  Tcb* make() {
    tcbs.push_back(std::make_unique<Tcb>(next_id++));
    return tcbs.back().get();
  }

  bool spawn(Scheduler& s, Tcb* parent, Tcb* child, int proc = 0) {
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

  Tcb* pick(Scheduler& s, int proc) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.pick_next(proc, kInf, &earliest);
    if (t) t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }

  /// A migration as the engines perform it: steal() under the victim
  /// cluster's lock, then rehome() under the thief's.
  Tcb* migrate(Scheduler& s, int proc, int victim) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.steal(proc, victim, kInf, &earliest);
    if (!t) return nullptr;
    s.rehome(t, proc);
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }
};

TEST(ClusteredAdf, LockDomainsFollowClusters) {
  ClusteredAdfScheduler s(8, 4);
  EXPECT_EQ(s.domains(), 2);
  EXPECT_EQ(s.lock_domain(0), 0);
  EXPECT_EQ(s.lock_domain(3), 0);
  EXPECT_EQ(s.lock_domain(4), 1);
  EXPECT_EQ(s.lock_domain(7), 1);
}

TEST(ClusteredAdf, PreemptsParentLikeAsyncDf) {
  ClusteredAdfScheduler s(8, 4);
  Harness h;
  Tcb* root = h.make();
  EXPECT_TRUE(h.spawn(s, nullptr, root));
  Tcb* child = h.make();
  EXPECT_TRUE(h.spawn(s, root, child));
  EXPECT_EQ(child->state.load(), ThreadState::Running);
  EXPECT_EQ(root->state.load(), ThreadState::Ready);
  // Both live in cluster 0; cluster 1 is empty.
  EXPECT_EQ(s.live_count(0), 2u);
  EXPECT_EQ(s.live_count(1), 0u);
}

TEST(ClusteredAdf, ChildInheritsParentCluster) {
  ClusteredAdfScheduler s(8, 4);
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  // Migrate root to cluster 1 by dispatching from proc 5 while cluster 1 is
  // dry (root is the only ready thread anywhere).
  root->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(root, 0);
  EXPECT_EQ(h.pick(s, /*proc=*/5), nullptr);  // own cluster only
  EXPECT_EQ(h.migrate(s, /*proc=*/5, /*victim=*/0), root);
  EXPECT_EQ(s.migrations(), 1u);
  EXPECT_EQ(root->home_proc, 1);
  // Its next child joins cluster 1, not 0.
  Tcb* child = h.make();
  h.spawn(s, root, child, /*proc=*/5);
  EXPECT_EQ(child->home_proc, 1);
  EXPECT_EQ(s.live_count(1), 2u);
}

TEST(ClusteredAdf, NoMigrationWhenHomeClusterHasWork) {
  ClusteredAdfScheduler s(8, 4);
  Harness h;
  Tcb* a = h.make();
  h.spawn(s, nullptr, a);
  a->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(a, 0);
  EXPECT_EQ(h.pick(s, /*proc=*/1), a);  // same cluster: no migration
  EXPECT_EQ(s.migrations(), 0u);
}

// Two clusters: the migrant leaves the victim's list in steal() and joins
// the thief's in rehome(), with no state of either cluster touched from the
// other's side; a later wake readies it in its new home cluster.
TEST(ClusteredAdf, MigrationLeavesVictimThenJoinsThiefCluster) {
  ClusteredAdfScheduler s(4, 2);
  Harness h;
  ASSERT_EQ(s.domains(), 2);
  EXPECT_TRUE(s.keeps_home());
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);  // order in cluster 0: c1 < root; root is Ready
  EXPECT_EQ(s.ready_in(0), 1u);
  EXPECT_EQ(s.ready_in(1), 0u);

  std::uint64_t earliest = kInf;
  EXPECT_EQ(s.steal(/*proc=*/2, /*victim=*/1, kInf, &earliest), nullptr);
  Tcb* t = s.steal(/*proc=*/2, /*victim=*/0, kInf, &earliest);
  ASSERT_EQ(t, root);
  // Out of cluster 0, not yet in cluster 1.
  EXPECT_EQ(s.live_count(0), 1u);
  EXPECT_EQ(s.live_count(1), 0u);
  EXPECT_EQ(s.ready_in(0), 0u);
  EXPECT_EQ(s.migrations(), 0u);
  s.rehome(t, /*proc=*/2);
  t->state.store(ThreadState::Running, std::memory_order_relaxed);
  EXPECT_EQ(t->home_proc, 1);
  EXPECT_EQ(s.live_count(1), 1u);
  EXPECT_EQ(s.migrations(), 1u);

  // It blocks and is woken from cluster 0: the wake lands in its new home.
  t->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  EXPECT_EQ(s.ready_domain(t, /*proc=*/0), 1);
  t->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(t, /*proc=*/0);
  EXPECT_EQ(s.ready_in(1), 1u);
  EXPECT_EQ(h.pick(s, /*proc=*/0), nullptr);
  EXPECT_EQ(h.pick(s, /*proc=*/3), t);
  EXPECT_EQ(s.ready_count(), 0u);
}

TEST(ClusteredAdf, LeftmostReadyWithinCluster) {
  ClusteredAdfScheduler s(4, 4);
  Harness h;
  Tcb* root = h.make();
  h.spawn(s, nullptr, root);
  Tcb* c1 = h.make();
  h.spawn(s, root, c1);
  Tcb* c2 = h.make();
  h.spawn(s, c1, c2);  // order: c2 < c1 < root
  c2->state.store(ThreadState::Ready, std::memory_order_relaxed);
  s.on_ready(c2, 0);
  EXPECT_EQ(h.pick(s, 0), c2);
  EXPECT_EQ(h.pick(s, 0), c1);
  EXPECT_EQ(h.pick(s, 0), root);
}

TEST(ClusteredAdf, EndToEndForkTreeThroughSim) {
  // A fork tree across 16 simulated processors in 4 clusters; correctness
  // plus the space discipline (live threads near the fork depth, far below
  // the breadth).
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::ClusteredAdf;
  o.nprocs = 16;
  o.cluster_size = 4;
  o.default_stack_size = 8 << 10;
  long long sum = 0;
  RunStats stats = run(o, [&] {
    struct Rec {
      static long long go(int depth) {
        annotate_work(300);
        if (depth == 0) return 1;
        auto left = spawn([depth]() -> void* {
          return reinterpret_cast<void*>(go(depth - 1));
        });
        const long long right = go(depth - 1);
        return reinterpret_cast<long long>(join(left)) + right;
      }
    };
    sum = Rec::go(10);
  });
  EXPECT_EQ(sum, 1 << 10);
  EXPECT_EQ(stats.threads_created, 1u << 10);
  EXPECT_LT(stats.max_live_threads, 200);  // ≪ 1024 breadth
}

TEST(ClusteredAdf, QuotaAndDummiesStillApply) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::ClusteredAdf;
  o.nprocs = 8;
  o.cluster_size = 4;
  o.mem_quota = 8 << 10;
  RunStats stats = run(o, [] {
    void* p = df_malloc(64 << 10);
    df_free(p);
  });
  EXPECT_EQ(stats.dummy_threads, 8u);  // ceil(64K / 8K)
}

TEST(ClusteredAdf, RealEngineSmoke) {
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::ClusteredAdf;
  o.nprocs = 4;
  o.cluster_size = 2;
  o.default_stack_size = 8 << 10;
  std::atomic<int> count{0};
  run(o, [&] {
    std::vector<Thread> threads;
    for (int i = 0; i < 100; ++i) {
      threads.push_back(spawn([&count]() -> void* {
        count.fetch_add(1);
        return nullptr;
      }));
    }
    for (auto& t : threads) join(t);
  });
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace dfth
