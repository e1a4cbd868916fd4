// Behavior tests for deterministic record/replay (src/replay/): the seven
// paper apps record on the RealEngine at p=4 and replay to identical
// schedule-dependent RunStats (and identical race-report sets when the
// build carries -DDFTH_RACE); corrupt or mismatched logs are rejected with
// a diagnostic before any engine state exists; a RealEngine log
// cross-replays to completion on the SimEngine; the engine's merged
// scheduling sections (fork dive, exit retirement), every timed-wait
// outcome and an inline child's deadline replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "../runtime/uneven_tree.h"
#include "analyze/race_detector.h"
#include "apps_runner.h"
#include "replay/log.h"
#include "replay/signature.h"
#include "resil/faults.h"
#include "runtime/api.h"
#include "runtime/engine.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "dfth_replay_test_" + name + ".dfthlog";
}

// A small irregular spawn tree with joins — enough concurrency on four
// workers to exercise dispatch, steal-free requeue and join ordering, and
// quick enough for the corruption death tests that re-run it.
void* tree(int depth) {
  if (depth == 0) return nullptr;
  Thread a = spawn([depth]() -> void* { return tree(depth - 1); });
  Thread b = spawn([depth]() -> void* { return tree(depth - 1); });
  join(a);
  join(b);
  return nullptr;
}

RuntimeOptions real_opts() {
  RuntimeOptions o;
  o.engine = EngineKind::Real;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.default_stack_size = 64 << 10;
  return o;
}

RunStats run_tree(RuntimeOptions o) {
  return run(o, [] { tree(6); });
}

#if DFTH_RACE
// Order-insensitive fingerprint of the accumulated race reports: the site
// labels and fiber ids, sorted. Identical schedules must produce identical
// report sets.
std::vector<std::string> race_fingerprint() {
  std::vector<std::string> out;
  for (const analyze::RaceReport& r : analyze::RaceDetector::instance().reports()) {
    std::string s;
    s += r.prev.site ? r.prev.site : "?";
    s += r.prev.is_write ? "w" : "r";
    s += std::to_string(r.prev.fiber);
    s += "|";
    s += r.cur.site ? r.cur.site : "?";
    s += r.cur.is_write ? "w" : "r";
    s += std::to_string(r.cur.fiber);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}
#endif

TEST(ReplayDeterminism, SevenAppsRealEngine) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  constexpr std::uint64_t kSeed = 0x5eed;
  constexpr int kProcs = 4;

  std::string rr_path;
  std::string rr_tag;
  // The tag lets `dfth-replay replay` re-drive a log this test leaves behind
  // after an abort-on-divergence — the failure artifact is self-describing.
  auto record_tweak = [&rr_path, &rr_tag](RuntimeOptions& o) {
    o.record_path = rr_path;
    o.record_tag = rr_tag;
  };
  auto replay_tweak = [&rr_path](RuntimeOptions& o) { o.replay_path = rr_path; };
  auto recorded = bench::make_apps(/*full=*/false, kSeed, EngineKind::Real,
                                   nullptr, record_tweak);
  auto replayed = bench::make_apps(/*full=*/false, kSeed, EngineKind::Real,
                                   nullptr, replay_tweak);
  ASSERT_EQ(recorded.size(), 7u);

  for (std::size_t i = 0; i < recorded.size(); ++i) {
    rr_tag = bench::app_slug(recorded[i].name);
    rr_path = temp_path(rr_tag);
#if DFTH_RACE
    analyze::RaceDetector::instance().clear();
#endif
    const RunStats rec = recorded[i].fine(SchedKind::AsyncDf, kProcs, kSeed);
#if DFTH_RACE
    const std::vector<std::string> rec_races = race_fingerprint();
    analyze::RaceDetector::instance().clear();
#endif
    const RunStats rep = replayed[i].fine(SchedKind::AsyncDf, kProcs, kSeed);
    EXPECT_EQ(replay::determinism_signature(rec),
              replay::determinism_signature(rep))
        << recorded[i].name << ": replay diverged from its own recording";
#if DFTH_RACE
    EXPECT_EQ(rec_races, race_fingerprint())
        << recorded[i].name << ": race-report sets differ across replay";
#endif
    std::remove(rr_path.c_str());
  }
}

TEST(ReplayDeterminism, SpawnTreeStatsAndLogStable) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  const std::string path = temp_path("tree");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  o.record_tag = "tree";
  const RunStats rec = run_tree(o);

  replay::LoadedLog log;
  std::string error;
  ASSERT_TRUE(replay::load_log(path, &log, &error)) << error;
  EXPECT_EQ(log.header.clean_end, 1u);
  EXPECT_STREQ(log.header.tag, "tree");
  EXPECT_GT(log.ordered.size(), rec.threads_created)
      << "every spawn implies at least its registration event";

  RuntimeOptions r = real_opts();
  r.replay_path = path;
  const RunStats rep = run_tree(r);
  EXPECT_EQ(replay::determinism_signature(rec),
            replay::determinism_signature(rep));
  std::remove(path.c_str());
}

TEST(ReplayDeterminism, CrossReplayOnSimCompletes) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  const std::string path = temp_path("cross");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  const RunStats rec = run_tree(o);

  // Same log, SimEngine: the cross-replayer maps the recorded dispatch
  // order onto virtual time. Stats are re-derived under the cost model, but
  // the shape of the computation is pinned.
  RuntimeOptions s = real_opts();
  s.engine = EngineKind::Sim;
  s.replay_path = path;
  const RunStats rep = run_tree(s);
  EXPECT_EQ(rep.threads_created, rec.threads_created);
  std::remove(path.c_str());
}

// The merged sections batch records of several decisions (spawn + parent
// requeue + dive dispatch; exit + joiner wake + next pick) under one gate.
// An uneven tree at p = 4 exercises all of them along with blocking joins,
// dummy threads and quota preemptions; replay must reproduce the run, and
// the same log must cross-replay on the simulator.
class ReplayMergedSections : public ::testing::TestWithParam<SchedKind> {
 protected:
  RuntimeOptions opts() const {
    RuntimeOptions o = real_opts();
    o.sched = GetParam();
    o.mem_quota = 4 << 10;
    return o;
  }
  static RunStats run_uneven(const RuntimeOptions& o) {
    std::atomic<std::uint64_t> spawned{0};
    return run(o, [&spawned] {
      // The child keeps its lane, yielding, until the parent's continuation
      // has run: under work stealing another lane has to steal it. The wait
      // goes through a Semaphore so that its outcome is a logged decision.
      Semaphore ran(0);
      Thread child = spawn([&ran]() -> void* {
        while (!ran.try_acquire()) yield();
        return nullptr;
      });
      ran.release();
      join(child);
      test::uneven_tree(0, 256, 6 << 10, &spawned);
    });
  }
};

TEST_P(ReplayMergedSections, UnevenTreeReplaysAndCrossReplays) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  const std::string path = temp_path(std::string("merged_") + to_string(GetParam()));
  RuntimeOptions o = opts();
  o.record_path = path;
  const RunStats rec = run_uneven(o);
  if (GetParam() == SchedKind::AsyncDf) {
    EXPECT_GT(rec.dummy_threads, 0u);
    EXPECT_GT(rec.quota_preemptions, 0u);
  } else {
    // Steals cross lock domains: each one is recorded under its victim's
    // lock and must replay on the one-domain replay scheduler.
    EXPECT_GT(rec.steals, 0u);
  }

  RuntimeOptions r = opts();
  r.replay_path = path;
  const RunStats rep = run_uneven(r);
  EXPECT_EQ(replay::determinism_signature(rec),
            replay::determinism_signature(rep));

  RuntimeOptions s = opts();
  s.engine = EngineKind::Sim;
  s.replay_path = path;
  const RunStats sim = run_uneven(s);
  EXPECT_EQ(sim.threads_created, rec.threads_created);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplayMergedSections,
                         ::testing::Values(SchedKind::AsyncDf,
                                           SchedKind::WorkSteal),
                         [](const ::testing::TestParamInfo<SchedKind>& info) {
                           return std::string(to_string(info.param));
                         });

// Every timed-wait outcome is an ordered decision: the timer's claims of a
// fiber's and a bound thread's wait, a timed wait a signal ends, and a
// timed lock a handoff ends.
RunStats run_timed_waits(const RuntimeOptions& o) {
  return run(o, [] {
    constexpr std::uint64_t kExpireNs = 1'000'000;             // 1 ms
    constexpr std::uint64_t kGenerousNs = 20'000'000'000ull;  // never expires
    Semaphore never(0);
    auto time_out = [&never]() -> void* {
      EXPECT_FALSE(never.try_acquire_for(kExpireNs));
      return nullptr;
    };
    Attr bound;
    bound.bound = true;
    const Thread fiber_timeout = spawn(time_out);
    const Thread bound_timeout = spawn(time_out, bound);

    // The waiter holds m until timed_wait releases it, so the signal below
    // finds it on the wait list.
    Mutex m;
    CondVar cv;
    Semaphore waiting(0);
    bool ready = false;
    const Thread waiter = spawn([&]() -> void* {
      LockGuard lock(m);
      waiting.release();
      while (!ready) EXPECT_TRUE(cv.timed_wait(m, kGenerousNs));
      return nullptr;
    });
    waiting.acquire();
    {
      LockGuard lock(m);
      ready = true;
      cv.signal();
    }

    // unlock() hands the mutex to a locker already blocked in try_lock_for.
    // The poll sleeps instead of yielding, so it adds no logged decision.
    Mutex handoff;
    std::atomic<Tcb*> locker_tcb{nullptr};
    handoff.lock();
    const Thread locker = spawn([&]() -> void* {
      locker_tcb.store(engine()->current());
      EXPECT_TRUE(handoff.try_lock_for(kGenerousNs));
      handoff.unlock();
      return nullptr;
    });
    for (;;) {
      const Tcb* t = locker_tcb.load();
      if (t && t->state.load() == ThreadState::Blocked) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    handoff.unlock();
    for (const Thread& t : {fiber_timeout, bound_timeout, waiter, locker}) join(t);
  });
}

TEST(ReplayDeterminism, TimedWaitsReplay) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  const std::string path = temp_path("timed");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  const RunStats rec = run_timed_waits(o);
  EXPECT_EQ(rec.sync_timeouts, 2u);

  RuntimeOptions r = real_opts();
  r.replay_path = path;
  const RunStats rep = run_timed_waits(r);
  EXPECT_EQ(replay::determinism_signature(rec),
            replay::determinism_signature(rep));
  std::remove(path.c_str());
}

// A child whose context fails runs inline on main's stack; its token's
// deadline has passed by then (1 ns) in the recording, and never comes in
// the replay, which must fire it from the log, not the clock.
RunStats run_inline_deadline(RuntimeOptions o, std::uint64_t deadline_ns,
                             CancelToken* token) {
  token->deadline_ns = deadline_ns;
  return run(o, [token] {
    Attr attr;
    attr.cancel = token;
    join(spawn([]() -> void* { return tree(2); }, attr));
  });
}

TEST(ReplayDeterminism, InlineChildDeadlineFiresAgain) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  const std::string path = temp_path("inline_deadline");
  // main draws ctx.create first; the token child's draw fails.
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kCtxCreate) = {
      .every_nth = 1, .skip_first = 1, .max_failures = 1};
  RuntimeOptions o = real_opts();
  o.fault_plan = &plan;
  o.record_path = path;
  CancelToken rec_token;
  const RunStats rec = run_inline_deadline(o, 1, &rec_token);
  EXPECT_EQ(rec.inline_runs, 1u);
  EXPECT_EQ(rec.deadline_expirations, 1u);
  EXPECT_TRUE(rec_token.is_cancelled());

  RuntimeOptions r = real_opts();
  r.replay_path = path;
  CancelToken rep_token;
  const RunStats rep =
      run_inline_deadline(r, std::numeric_limits<std::uint64_t>::max(), &rep_token);
  EXPECT_EQ(rep.inline_runs, 1u);
  EXPECT_EQ(rep.deadline_expirations, 1u);
  EXPECT_TRUE(rep_token.is_cancelled());
  EXPECT_EQ(replay::determinism_signature(rec),
            replay::determinism_signature(rep));
  std::remove(path.c_str());
}

using ReplayDeathTest = ::testing::Test;

TEST(ReplayDeathTest, CorruptLogRejected) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("corrupt");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  run_tree(o);

  // Flip one payload byte: load_log must fail the checksum and run() must
  // refuse to start, with the diagnostic naming the file.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  RuntimeOptions r = real_opts();
  r.replay_path = path;
  EXPECT_DEATH(run_tree(r), "checksum mismatch");
  std::remove(path.c_str());
}

TEST(ReplayDeathTest, TruncatedLogRejected) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("trunc");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  run_tree(o);
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  RuntimeOptions r = real_opts();
  r.replay_path = path;
  EXPECT_DEATH(run_tree(r), "truncated|promised");
  std::remove(path.c_str());
}

TEST(ReplayDeathTest, MismatchedOptionsRejected) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("mismatch");
  RuntimeOptions o = real_opts();
  o.record_path = path;
  run_tree(o);

  RuntimeOptions r = real_opts();
  r.nprocs = 2;  // the log says 4
  r.replay_path = path;
  EXPECT_DEATH(run_tree(r), "does not match");
  std::remove(path.c_str());
}

TEST(ReplayOptions, RecordAndReplayMutuallyExclusive) {
  if (!replay::kReplayEnabled) GTEST_SKIP() << "built with -DDFTH_REPLAY=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RuntimeOptions o = real_opts();
  o.record_path = temp_path("both");
  o.replay_path = temp_path("both");
  EXPECT_DEATH(run_tree(o), "mutually exclusive");
}

}  // namespace
}  // namespace dfth
