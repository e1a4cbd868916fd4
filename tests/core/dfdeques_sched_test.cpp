// DfDeques (§5.3 "current work"): ordered deques, LIFO owner path,
// leftmost-bottom stealing with deque repositioning, and the locality
// property on a tree-spawned workload.
#include "core/dfdeques_sched.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "apps/volrend/volrend.h"
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

  void ready(Scheduler& s, Tcb* t, int proc) {
    t->state.store(ThreadState::Ready, std::memory_order_relaxed);
    s.on_ready(t, proc);
  }

  Tcb* pick(Scheduler& s, int proc) {
    std::uint64_t earliest = kInf;
    Tcb* t = s.pick_next(proc, kInf, &earliest);
    if (t) t->state.store(ThreadState::Running, std::memory_order_relaxed);
    return t;
  }
};

TEST(DfDeques, OwnerWorksLifo) {
  DfDequesScheduler s(2);
  Harness h;
  Tcb* a = h.make();
  Tcb* b = h.make();
  h.ready(s, a, 0);
  h.ready(s, b, 0);
  EXPECT_EQ(h.pick(s, 0), b);  // newest first on the owner's end
  EXPECT_EQ(h.pick(s, 0), a);
  EXPECT_EQ(h.pick(s, 0), nullptr);
}

TEST(DfDeques, ThiefTakesOldestFromLeftmostDeque) {
  DfDequesScheduler s(3);
  Harness h;
  Tcb* a = h.make();
  Tcb* b = h.make();
  h.ready(s, a, 0);
  h.ready(s, b, 0);
  // Proc 2's deque is empty: it must steal the BOTTOM (a) of deque 0.
  EXPECT_EQ(h.pick(s, 2), a);
  EXPECT_EQ(s.steal_count(), 1u);
  EXPECT_EQ(a->home_proc, 2);  // migrated
  // Thief's deque moved right of the victim's: 0 < 2 (< 1 untouched-ish).
  EXPECT_TRUE(s.deque_before(0, 2));
  // Owner still has its newest thread.
  EXPECT_EQ(h.pick(s, 0), b);
}

TEST(DfDeques, SpawnPreemptsParentAndKeepsQuota) {
  DfDequesScheduler s(2);
  Harness h;
  Tcb* parent = h.make();
  Tcb* child = h.make();
  EXPECT_TRUE(s.dives(parent, child));  // work-first
  EXPECT_TRUE(s.needs_quota());
}

TEST(DfDeques, StolenSubtreeStaysLocal) {
  // Tree-spawned volrend at the finest granularity: the locality-aware
  // scheduler must keep the cache hit rate high where plain AsyncDF loses
  // it (§5.3's claim), while producing the identical image.
  apps::VolrendConfig cfg;
  cfg.volume_dim = 64;
  cfg.image_dim = 64;
  cfg.tiles_per_thread = 1;
  apps::Volume vol(cfg);
  const auto serial_img = apps::volrend_serial(vol, cfg);

  auto one = [&](SchedKind sched) {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = sched;
    o.nprocs = 8;
    o.default_stack_size = 8 << 10;
    apps::Image img;
    RunStats stats = run(o, [&] { img = apps::volrend_fine_tree(vol, cfg); });
    EXPECT_TRUE(apps::volrend_images_equal(img, serial_img)) << to_string(sched);
    return stats;
  };
  const RunStats adf = one(SchedKind::AsyncDf);
  const RunStats dfd = one(SchedKind::DfDeques);
  const auto rate = [](const RunStats& s) {
    return static_cast<double>(s.cache_hits) /
           static_cast<double>(s.cache_hits + s.cache_misses + 1);
  };
  EXPECT_GT(rate(dfd), rate(adf));
  EXPECT_LE(dfd.elapsed_us, adf.elapsed_us);
}

TEST(DfDeques, FlatForkTreeCompletesOnBothEngines) {
  for (EngineKind engine : {EngineKind::Sim, EngineKind::Real}) {
    RuntimeOptions o;
    o.engine = engine;
    o.sched = SchedKind::DfDeques;
    o.nprocs = 4;
    o.default_stack_size = 8 << 10;
    long long sum = 0;
    run(o, [&] {
      struct Rec {
        static long long go(int depth) {
          annotate_work(100);
          if (depth == 0) return 1;
          auto left = spawn([depth]() -> void* {
            return reinterpret_cast<void*>(go(depth - 1));
          });
          const long long right = go(depth - 1);
          return reinterpret_cast<long long>(join(left)) + right;
        }
      };
      sum = Rec::go(9);
    });
    EXPECT_EQ(sum, 512) << to_string(engine);
  }
}

TEST(DfDeques, SpaceStaysBoundedOnMatmulPattern) {
  // Allocating fork tree: DfDeques' ordered stealing should keep live
  // threads and heap near AsyncDF's, far below FIFO's.
  auto tree = [](int depth, auto&& self) -> void {
    annotate_work(500);
    if (depth == 0) return;
    void* buf = df_malloc(16 << 10);
    auto left = spawn([depth, &self]() -> void* {
      self(depth - 1, self);
      return nullptr;
    });
    self(depth - 1, self);
    join(left);
    df_free(buf);
  };
  auto one = [&](SchedKind sched) {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = sched;
    o.nprocs = 8;
    o.default_stack_size = 8 << 10;
    return run(o, [&] { tree(10, tree); });
  };
  const RunStats dfd = one(SchedKind::DfDeques);
  const RunStats fifo = one(SchedKind::Fifo);
  EXPECT_LT(dfd.max_live_threads, fifo.max_live_threads / 3);
  EXPECT_LT(dfd.heap_peak, fifo.heap_peak);
}

}  // namespace
}  // namespace dfth
