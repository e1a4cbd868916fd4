// Happens-before race-detector tests: the FastTrack core driven directly
// (standalone instance, no engine), its shadow table, and the engine-level
// edges of runs that install a detector (RuntimeOptions::race) — including
// the schedule-insensitivity property the detector exists for: a run under
// each scheduler policy, on either engine, reports the *same* race set,
// because the analysis is over the fork/join DAG, not the schedule that
// happened to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/race_detector.h"
#include "apps/barnes/barnes.h"
#include "apps/dtree/dtree.h"
#include "apps/fft/fft.h"
#include "apps/fmm/fmm.h"
#include "apps/matmul/matmul.h"
#include "apps/spmv/spmv.h"
#include "apps/volrend/volrend.h"
#include "resil/faults.h"
#include "runtime/api.h"
#include "runtime/sync.h"
#include "threads/tcb.h"

namespace dfth {
namespace {

using analyze::RaceDetector;

// ---------- FastTrack core, driven directly (no engine, no flag) ----------

/// Harness: a main Tcb plus helpers to fork/join children through the
/// detector, mimicking what the engine hooks do.
class RaceDetectorUnit : public ::testing::Test {
 protected:
  RaceDetectorUnit() : main_(1) {
    det_.set_abort_on_race(false);
    det_.on_thread_start(&main_, nullptr);
  }

  Tcb* fork(Tcb* parent) {
    tcbs_.push_back(std::make_unique<Tcb>(next_id_++));
    Tcb* child = tcbs_.back().get();
    det_.on_thread_start(child, parent);
    return child;
  }

  RaceDetector det_;
  Tcb main_;
  std::uint64_t next_id_ = 2;
  std::vector<std::unique_ptr<Tcb>> tcbs_;
  double cell_ = 0;  // the memory under test
};

TEST_F(RaceDetectorUnit, ForkOrdersParentPrefixBeforeChild) {
  det_.on_write(&main_, &cell_, sizeof(cell_), "parent:init");
  Tcb* child = fork(&main_);
  det_.on_write(child, &cell_, sizeof(cell_), "child:write");
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, SiblingWritesRace) {
  Tcb* c1 = fork(&main_);
  Tcb* c2 = fork(&main_);
  det_.on_write(c1, &cell_, sizeof(cell_), "sib:one");
  det_.on_write(c2, &cell_, sizeof(cell_), "sib:two");
  ASSERT_EQ(det_.races_detected(), 1u);
  const analyze::RaceReport r = det_.reports()[0];
  EXPECT_EQ(r.prev.fiber, c1->id);
  EXPECT_EQ(r.cur.fiber, c2->id);
  EXPECT_STREQ(r.prev.site, "sib:one");
  EXPECT_STREQ(r.cur.site, "sib:two");
  EXPECT_TRUE(r.prev.is_write);
  EXPECT_TRUE(r.cur.is_write);
}

TEST_F(RaceDetectorUnit, ParentPostForkSegmentIsConcurrentWithChild) {
  Tcb* child = fork(&main_);
  det_.on_write(child, &cell_, sizeof(cell_), "child:write");
  // No join edge: the parent's post-fork write is unordered with the child's.
  det_.on_write(&main_, &cell_, sizeof(cell_), "parent:after-fork");
  EXPECT_EQ(det_.races_detected(), 1u);
}

TEST_F(RaceDetectorUnit, JoinOrdersChildBeforeParentContinuation) {
  Tcb* child = fork(&main_);
  det_.on_write(child, &cell_, sizeof(cell_), "child:write");
  det_.on_join(&main_, child);
  det_.on_write(&main_, &cell_, sizeof(cell_), "parent:after-join");
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, MutexReleaseAcquireOrdersCriticalSections) {
  Tcb* c1 = fork(&main_);
  Tcb* c2 = fork(&main_);
  int mutex = 0;  // any address works as the sync-object key
  det_.on_acquire(c1, &mutex);
  det_.on_write(c1, &cell_, sizeof(cell_), "cs:one");
  det_.on_release(c1, &mutex);
  det_.on_acquire(c2, &mutex);
  det_.on_write(c2, &cell_, sizeof(cell_), "cs:two");
  det_.on_release(c2, &mutex);
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, SemaphoreVThenPOrders) {
  Tcb* producer = fork(&main_);
  Tcb* consumer = fork(&main_);
  int sem = 0;
  det_.on_write(producer, &cell_, sizeof(cell_), "producer:fill");
  det_.on_release(producer, &sem);  // V
  det_.on_acquire(consumer, &sem);  // P
  det_.on_read(consumer, &cell_, sizeof(cell_), "consumer:drain");
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, ConcurrentReadsEscalateWithoutRacing) {
  det_.on_write(&main_, &cell_, sizeof(cell_), "parent:init");
  Tcb* r1 = fork(&main_);
  Tcb* r2 = fork(&main_);
  det_.on_read(r1, &cell_, sizeof(cell_), "reader:one");
  EXPECT_EQ(det_.read_escalations(), 0u);  // single reader: epoch fast path
  det_.on_read(r2, &cell_, sizeof(cell_), "reader:two");
  EXPECT_EQ(det_.races_detected(), 0u);    // reads never race with reads
  EXPECT_EQ(det_.read_escalations(), 1u);  // genuinely concurrent: escalated
  // A concurrent write must be checked against the *full* read vector, not
  // just the most recent reader.
  Tcb* w = fork(&main_);
  det_.on_write(w, &cell_, sizeof(cell_), "writer:late");
  EXPECT_EQ(det_.races_detected(), 1u);
}

TEST_F(RaceDetectorUnit, OrderedReadsStayOnEpochFastPath) {
  det_.on_write(&main_, &cell_, sizeof(cell_), "parent:init");
  det_.on_read(&main_, &cell_, sizeof(cell_), "parent:read");
  Tcb* child = fork(&main_);
  det_.on_read(child, &cell_, sizeof(cell_), "child:read");  // HB-after parent
  det_.on_join(&main_, child);
  det_.on_read(&main_, &cell_, sizeof(cell_), "parent:reread");
  EXPECT_EQ(det_.races_detected(), 0u);
  EXPECT_EQ(det_.read_escalations(), 0u);  // totally ordered: never escalates
}

TEST_F(RaceDetectorUnit, RwLockReadersConcurrentWritersOrdered) {
  int rw = 0;
  det_.on_wr_acquire(&main_, &rw);
  det_.on_write(&main_, &cell_, sizeof(cell_), "writer:init");
  det_.on_release(&main_, &rw);
  Tcb* r1 = fork(&main_);
  Tcb* r2 = fork(&main_);
  det_.on_rd_acquire(r1, &rw);
  det_.on_read(r1, &cell_, sizeof(cell_), "reader:one");
  det_.on_rd_release(r1, &rw);
  det_.on_rd_acquire(r2, &rw);
  det_.on_read(r2, &cell_, sizeof(cell_), "reader:two");
  det_.on_rd_release(r2, &rw);
  // The next writer orders after *all* read releases, not just the writer
  // chain — this is the rd_rel clock.
  Tcb* w = fork(&main_);
  det_.on_wr_acquire(w, &rw);
  det_.on_write(w, &cell_, sizeof(cell_), "writer:late");
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, RwLockReadDoesNotOrderReaderAgainstReader) {
  // Two read critical sections are concurrent: unprotected writes done
  // inside them still race. (Holding a read lock is not mutual exclusion.)
  int rw = 0;
  Tcb* r1 = fork(&main_);
  Tcb* r2 = fork(&main_);
  det_.on_rd_acquire(r1, &rw);
  det_.on_write(r1, &cell_, sizeof(cell_), "rd-cs:one");
  det_.on_rd_release(r1, &rw);
  det_.on_rd_acquire(r2, &rw);
  det_.on_write(r2, &cell_, sizeof(cell_), "rd-cs:two");
  det_.on_rd_release(r2, &rw);
  EXPECT_EQ(det_.races_detected(), 1u);
}

TEST_F(RaceDetectorUnit, BarrierGenerationIsAllToAll) {
  Tcb* t1 = fork(&main_);
  Tcb* t2 = fork(&main_);
  int barrier = 0;
  det_.on_write(t1, &cell_, sizeof(cell_), "phase0:t1");
  det_.on_barrier_arrive(t1, &barrier, 0, /*last=*/false);
  det_.on_barrier_arrive(t2, &barrier, 0, /*last=*/true);
  det_.on_barrier_leave(t2, &barrier, 0);
  det_.on_barrier_leave(t1, &barrier, 0);
  // After the generation, t2 sees t1's phase-0 write (and vice versa).
  det_.on_write(t2, &cell_, sizeof(cell_), "phase1:t2");
  EXPECT_EQ(det_.races_detected(), 0u);
}

TEST_F(RaceDetectorUnit, GranuleSpanningAccessChecksEveryGranule) {
  double wide[4] = {0, 0, 0, 0};
  Tcb* c1 = fork(&main_);
  Tcb* c2 = fork(&main_);
  det_.on_write(c1, &wide[3], sizeof(double), "sib:tail");
  // The sibling's span covers all four granules; the race is on the last.
  det_.on_write(c2, &wide[0], sizeof(wide), "sib:span");
  ASSERT_EQ(det_.races_detected(), 1u);
  EXPECT_STREQ(det_.reports()[0].prev.site, "sib:tail");
}

TEST_F(RaceDetectorUnit, DuplicateRacePairReportedOnce) {
  Tcb* c1 = fork(&main_);
  Tcb* c2 = fork(&main_);
  int tick = 0;  // sync object used only to advance c2's clock
  det_.on_write(c1, &cell_, sizeof(cell_), "dup:writer");
  det_.on_read(c2, &cell_, sizeof(cell_), "dup:reader");
  det_.on_release(c2, &tick);
  det_.on_read(c2, &cell_, sizeof(cell_), "dup:reader");
  EXPECT_EQ(det_.races_detected(), 1u);  // same (addr, sites, kinds) pair
}

TEST_F(RaceDetectorUnit, ClearResetsEverything) {
  Tcb* c1 = fork(&main_);
  Tcb* c2 = fork(&main_);
  det_.on_write(c1, &cell_, sizeof(cell_), "sib:one");
  det_.on_write(c2, &cell_, sizeof(cell_), "sib:two");
  ASSERT_EQ(det_.races_detected(), 1u);
  det_.clear();
  EXPECT_EQ(det_.races_detected(), 0u);
  EXPECT_EQ(det_.read_escalations(), 0u);
  // The same race must be re-detectable from scratch.
  det_.on_write(c1, &cell_, sizeof(cell_), "sib:one");
  det_.on_write(c2, &cell_, sizeof(cell_), "sib:two");
  EXPECT_EQ(det_.races_detected(), 1u);
}

// ---------- shadow table ----------

TEST(ShadowTable, ClearRangeDropsExactlyTheCoveredGranules) {
  analyze::ShadowTable st;
  {
    std::lock_guard<std::mutex> g(st.mu());
    st.cell(10);
    st.cell(11);
    st.cell(12);
  }
  EXPECT_EQ(st.cell_count(), 3u);
  // [granule 10, granule 11] inclusive: 16 bytes starting at granule 10.
  st.clear_range(reinterpret_cast<void*>(10 * analyze::kShadowGranuleBytes),
                 2 * analyze::kShadowGranuleBytes);
  EXPECT_EQ(st.cell_count(), 1u);
  st.clear_all();
  EXPECT_EQ(st.cell_count(), 0u);
}

TEST(ShadowTable, ClearRangeOnEmptyTableIsANoOp) {
  analyze::ShadowTable st;
  st.clear_range(reinterpret_cast<void*>(64), 1024);  // lock-free early out
  EXPECT_EQ(st.cell_count(), 0u);
}

// ---------- engine-level edges (a detector installed per run) ----------

RuntimeOptions race_opts(EngineKind engine, SchedKind sched, int procs,
                         RaceDetector* det) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = procs;
  // Sim's fibers stay small; Real's run the apps on real stacks.
  if (engine == EngineKind::Sim) o.default_stack_size = 16 << 10;
  o.race = det;
  return o;
}

TEST(RaceDetectorEngine, RetiredMemoryDropsItsShadowCells) {
  RaceDetector det;
  std::size_t cells_written = 0, cells_after_free = 0, cells_after_join = 0;
  run(race_opts(EngineKind::Sim, SchedKind::AsyncDf, 1, &det), [&] {
    auto* p = static_cast<char*>(df_malloc(64));
    df_write(p, 8, "block:first");
    df_write(p + 56, 8, "block:last");  // last granule of the 64-byte block
    cells_written = det.shadow_cells();
    // Freeing must drop the whole block's shadow: the allocator may hand
    // this range to an unrelated thread, and a stale cell would pair the
    // new lifetime's first access against the dead one's last.
    df_free(p);
    cells_after_free = det.shadow_cells();
    // So must a retired stack: a later fiber on it must not inherit the
    // epochs of a dead one's locals.
    join(spawn([]() -> void* {
      double local = 0;
      df_write(&local, sizeof(local), "stack:local");
      return nullptr;
    }));
    cells_after_join = det.shadow_cells();
  });
  EXPECT_EQ(cells_written, 2u);
  EXPECT_EQ(cells_after_free, 0u);
  EXPECT_EQ(cells_after_join, 0u);
  EXPECT_EQ(det.races_detected(), 0u);
}

TEST(RaceDetectorEngine, UninstalledAfterTheRun) {
  RaceDetector det;
  run(race_opts(EngineKind::Sim, SchedKind::AsyncDf, 1, &det), [] {});
  EXPECT_EQ(analyze::race_detector(), nullptr);
  // A later run without one reports nothing to it.
  run(race_opts(EngineKind::Sim, SchedKind::AsyncDf, 2, nullptr), [] {
    auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
    Thread a = spawn([cell]() -> void* {
      df_write(cell, sizeof(double), "off:one");
      return nullptr;
    });
    df_write(cell, sizeof(double), "off:two");
    join(a);
    df_free(cell);
  });
  EXPECT_EQ(det.races_detected(), 0u);
  EXPECT_EQ(det.shadow_cells(), 0u);
}

constexpr const char* kLeafSite[4] = {"leaf0", "leaf1", "leaf2", "leaf3"};

/// Index of the cell dedicated to leaf pair (lo, hi), lo < hi < 4.
int pair_cell(int lo, int hi) {
  static constexpr int offset[3] = {0, 3, 5};
  return offset[lo] + (hi - lo - 1);
}

using SitePairs = std::set<std::pair<std::string, std::string>>;

/// Runs the known racy fork tree on `engine` under `sched` at p = 4: four
/// sibling leaves, one dedicated df_malloc'd cell per leaf pair, each leaf
/// declaring a write to the three cells of its pairs without any lock.
/// Every cell gets exactly two unordered writes, so the race set is exactly
/// the six leaf pairs — on any schedule. (The leaves only declare the
/// writes: on real workers the stores themselves would race on the host.)
/// Returns the reported set normalized to unordered site pairs.
SitePairs run_racy_tree(EngineKind engine, SchedKind sched) {
  RaceDetector det;
  det.set_abort_on_race(false);
  run(race_opts(engine, sched, 4, &det), [] {
    auto* cells = static_cast<double*>(df_malloc(6 * sizeof(double)));
    for (int i = 0; i < 6; ++i) cells[i] = 0.0;
    Thread kids[4];
    for (int i = 0; i < 4; ++i) {
      kids[i] = spawn([i, cells]() -> void* {
        for (int j = 0; j < 4; ++j) {
          if (j == i) continue;
          const int cell = pair_cell(std::min(i, j), std::max(i, j));
          df_write(&cells[cell], sizeof(double), kLeafSite[i]);
        }
        return nullptr;
      });
    }
    for (Thread& k : kids) join(k);
    df_free(cells);
  });
  SitePairs pairs;
  for (const analyze::RaceReport& r : det.reports()) {
    std::string a = r.prev.site, b = r.cur.site;
    if (b < a) std::swap(a, b);
    pairs.emplace(a, b);
  }
  return pairs;
}

SitePairs all_leaf_pairs() {
  SitePairs expected;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) expected.emplace(kLeafSite[i], kLeafSite[j]);
  }
  return expected;
}

TEST(RaceDetectorEngine, RacyForkTreeReportsSameSetUnderEveryPolicy) {
  const SitePairs expected = all_leaf_pairs();
  ASSERT_EQ(expected.size(), 6u);
  for (SchedKind sched : {SchedKind::Fifo, SchedKind::Lifo, SchedKind::AsyncDf,
                          SchedKind::WorkSteal}) {
    EXPECT_EQ(run_racy_tree(EngineKind::Sim, sched), expected)
        << "race set differs under scheduler " << to_string(sched);
  }
}

// The same six pairs when four workers really run the leaves at once.
TEST(RaceDetectorEngine, RacyForkTreeReportsSameSetOnRealEngine) {
  const SitePairs expected = all_leaf_pairs();
  for (SchedKind sched : {SchedKind::AsyncDf, SchedKind::WorkSteal}) {
    EXPECT_EQ(run_racy_tree(EngineKind::Real, sched), expected)
        << "race set differs under scheduler " << to_string(sched);
  }
}

// A child whose context cannot be made runs inline, on its parent's Tcb
// (DESIGN §8). The detector must still check its body as the child, or
// the verdict would depend on whether ctx.create failed.
class InlineChildRace : public ::testing::TestWithParam<EngineKind> {};

TEST_P(InlineChildRace, ChildWriteRacesParentContinuationBeforeJoin) {
  const EngineKind engine = GetParam();
  // Every context after main's fails (Real's main draws the site first).
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kCtxCreate) = {
      .every_nth = 1, .skip_first = engine == EngineKind::Real ? 1u : 0u};
  for (const bool inline_run : {false, true}) {
    RaceDetector det;
    det.set_abort_on_race(false);
    RuntimeOptions o = race_opts(engine, SchedKind::AsyncDf, 1, &det);
    if (inline_run) o.fault_plan = &plan;
    const RunStats s = run(o, [] {
      auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
      Thread child = spawn([cell]() -> void* {
        df_write(cell, sizeof(double), "inline:child");
        *cell = 1.0;
        return nullptr;
      });
      df_write(cell, sizeof(double), "inline:parent");
      *cell = 2.0;
      join(child);
      df_free(cell);
    });
    const char* path = inline_run ? "inline child" : "child on its own context";
    EXPECT_EQ(s.inline_runs, inline_run ? 1u : 0u) << path;
    ASSERT_EQ(det.races_detected(), 1u) << path;
    const analyze::RaceReport r = det.reports()[0];
    EXPECT_STREQ(r.prev.site, "inline:child") << path;
    EXPECT_STREQ(r.cur.site, "inline:parent") << path;
    EXPECT_NE(r.prev.fiber, r.cur.fiber) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, InlineChildRace,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(RaceDetectorEngine, MutexProtectedProgramCleanOnRealEngine) {
  RaceDetector det;
  det.set_abort_on_race(false);
  run(race_opts(EngineKind::Real, SchedKind::AsyncDf, 4, &det), [] {
    auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
    *cell = 0.0;
    static Mutex m;
    std::vector<Thread> threads;
    for (int i = 0; i < 8; ++i) {
      threads.push_back(spawn([cell]() -> void* {
        m.lock();
        df_write(cell, sizeof(double), "counter:bump");
        *cell += 1.0;
        m.unlock();
        return nullptr;
      }));
    }
    for (Thread& t : threads) join(t);
    df_free(cell);
  });
  EXPECT_EQ(det.races_detected(), 0u);
}

TEST(RaceDetectorEngine, SevenAppsSmallConfigsProduceZeroReports) {
  for (const EngineKind engine : {EngineKind::Sim, EngineKind::Real}) {
    SCOPED_TRACE(to_string(engine));
    RaceDetector det;
    det.set_abort_on_race(false);
    const RuntimeOptions o = race_opts(engine, SchedKind::AsyncDf, 4, &det);
    {  // matmul (the one app with leaf-kernel df_read/df_write annotations)
      apps::MatmulConfig cfg;
      cfg.n = 64;
      cfg.base = 16;
      std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
      apps::matmul_fill(a.data(), cfg.n, 3);
      apps::matmul_fill(b.data(), cfg.n, 4);
      run(o, [&] { apps::matmul_threaded(a.data(), b.data(), c.data(), cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "matmul";
      run(o, [&] {
        apps::matmul_strassen_threaded(a.data(), b.data(), c.data(), cfg);
      });
      EXPECT_EQ(det.races_detected(), 0u) << "matmul-strassen";
    }
    {  // fft
      const std::size_t n = 1 << 10;
      std::vector<apps::Complex> in(n), out(n);
      apps::fft_fill(in.data(), n, 13);
      apps::FftPlan plan(n);
      run(o, [&] { plan.execute_threaded(in.data(), out.data(), 8); });
      EXPECT_EQ(det.races_detected(), 0u) << "fft";
    }
    {  // spmv
      apps::SpmvConfig cfg;
      cfg.rows = 2000;
      cfg.target_nnz = 10000;
      cfg.iterations = 2;
      cfg.threads_per_iter = 8;
      apps::CsrMatrix m(cfg.rows, cfg.rows);
      spmv_generate(m, cfg);
      std::vector<double> v(cfg.rows, 1.0), w(cfg.rows);
      run(o, [&] { spmv_fine(m, v.data(), w.data(), cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "spmv";
    }
    {  // dtree
      apps::DtreeConfig cfg;
      cfg.instances = 8000;
      cfg.serial_cutoff = 500;
      cfg.min_leaf = 32;
      const auto data = apps::dtree_generate(cfg);
      run(o, [&] { apps::dtree_build_threaded(data, cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "dtree";
    }
    {  // volrend
      apps::VolrendConfig cfg;
      cfg.volume_dim = 64;
      cfg.image_dim = 48;
      cfg.frames = 1;
      cfg.tiles_per_thread = 4;
      apps::Volume vol(cfg);
      run(o, [&] { apps::volrend_fine(vol, cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "volrend";
    }
    {  // barnes
      apps::BarnesConfig cfg;
      cfg.bodies = 1500;
      cfg.timesteps = 1;
      auto bodies = apps::barnes_generate(cfg);
      run(o, [&] { apps::barnes_fine(bodies, cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "barnes";
    }
    {  // fmm
      apps::FmmConfig cfg;
      cfg.particles = 1200;
      cfg.levels = 3;
      cfg.terms = 12;
      cfg.chunk = 9;
      auto particles = apps::fmm_generate(cfg);
      run(o, [&] { apps::fmm_threaded(particles, cfg); });
      EXPECT_EQ(det.races_detected(), 0u) << "fmm";
    }
  }
}

void run_racy_pair_aborting() {
  RaceDetector det;  // aborts on the first race by default
  run(race_opts(EngineKind::Sim, SchedKind::AsyncDf, 4, &det), [] {
    auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
    *cell = 0.0;
    Thread a = spawn([cell]() -> void* {
      df_write(cell, sizeof(double), "abort:one");
      *cell = 1.0;
      return nullptr;
    });
    Thread b = spawn([cell]() -> void* {
      df_write(cell, sizeof(double), "abort:two");
      *cell = 2.0;
      return nullptr;
    });
    join(a);
    join(b);
    df_free(cell);
  });
}

TEST(RaceDetectorDeathTest, RaceAbortsByDefault) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(run_racy_pair_aborting(), "data race");
}

}  // namespace
}  // namespace dfth
