// Behavior tests for deterministic record/replay (src/replay/): the seven
// paper apps record on the RealEngine at p=4 and replay to identical
// schedule-dependent RunStats (and identical race-report sets when the
// build carries -DDFTH_RACE); corrupt or mismatched logs are rejected with
// a diagnostic before any engine state exists; a RealEngine log
// cross-replays to completion on the SimEngine; the engine's merged
// scheduling sections (fork dive, exit retirement) replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../runtime/uneven_tree.h"
#include "analyze/race_detector.h"
#include "apps_runner.h"
#include "replay/log.h"
#include "replay/signature.h"
#include "runtime/api.h"

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
    return run(o, [&spawned] { test::uneven_tree(0, 256, 6 << 10, &spawned); });
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
