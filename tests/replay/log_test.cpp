// Format-level tests for the schedule log (src/replay/log.h): save/load
// roundtrip and the promise that every malformation is a diagnosed error,
// never UB. These run in both replay build flavors — the reader/writer
// compiles unconditionally; only the engine hooks are #if-gated.
#include "replay/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "replay/hooks.h"

namespace dfth::replay {
namespace {

// The hook macros must be statement-safe no-ops whenever there is no active
// session (mirroring the obs/trace.h discipline).
TEST(ReplayHooks, NoOpWithoutSession) {
  DFTH_REPLAY_BIND_LANE(0);
  DFTH_REPLAY_GATE(kActorHost);
  DFTH_REPLAY_GATE_SELF();
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Dispatch, kActorHost, 1, 0);
  DFTH_REPLAY_SYNC_GATE();
  DFTH_REPLAY_FAULT_GATE();
  DFTH_REPLAY_STEAL(0, 1, 2);
  if (true) DFTH_REPLAY_GATE_SELF();  // must parse as a single statement
  SUCCEED();
}

std::string temp_log_path(const char* name) {
  return testing::TempDir() + "dfth_log_test_" + name + ".dfthlog";
}

LogHeader make_header() {
  LogHeader h{};
  h.engine = 1;
  h.sched = 2;
  h.nprocs = 4;
  h.cluster_size = 4;
  h.seed = 0x5eed;
  h.mem_quota = 1 << 20;
  h.default_stack_size = 8 << 10;
  h.clean_end = 1;
  std::snprintf(h.tag, sizeof(h.tag), "log-test");
  return h;
}

Record rec(std::uint64_t seq, EvKind kind, std::uint64_t actor,
           std::uint64_t a = 0, std::uint64_t b = 0,
           std::uint16_t flags = 0) {
  Record r;
  r.seq = seq;
  r.kind = static_cast<std::uint16_t>(kind);
  r.actor = actor;
  r.a = a;
  r.b = b;
  r.flags = flags;
  return r;
}

// Two lanes with interleaved seq values plus one annotation: the loader
// must merge the ordered records by seq and split annotations out.
std::vector<std::vector<Record>> make_lanes() {
  std::vector<std::vector<Record>> lanes(2);
  lanes[0] = {rec(0, EvKind::TidAlloc, kActorHost, 1),
              rec(2, EvKind::Dispatch, lane_actor(0), 1),
              rec(5, EvKind::Steal, lane_actor(0), 3, 1, kFlagAnnotation)};
  lanes[1] = {rec(1, EvKind::SpawnReg, kActorHost, 1),
              rec(3, EvKind::Sync, 1, 7, 1),
              rec(4, EvKind::ExitSched, 1, 1)};
  return lanes;
}

TEST(ReplayLog, RoundTrip) {
  const std::string path = temp_log_path("roundtrip");
  std::string error;
  ASSERT_TRUE(save_log(path, make_header(), make_lanes(), &error)) << error;

  LoadedLog log;
  ASSERT_TRUE(load_log(path, &log, &error)) << error;
  EXPECT_STREQ(log.header.tag, "log-test");
  EXPECT_EQ(log.header.nprocs, 4u);
  EXPECT_EQ(log.header.seed, 0x5eedu);
  EXPECT_EQ(log.header.event_count, 6u);
  ASSERT_EQ(log.ordered.size(), 5u);
  ASSERT_EQ(log.annotations.size(), 1u);
  for (std::size_t i = 0; i < log.ordered.size(); ++i) {
    EXPECT_EQ(log.ordered[i].seq, i) << "merge by seq";
  }
  EXPECT_EQ(log.ordered[3].kind, static_cast<std::uint16_t>(EvKind::Sync));
  EXPECT_EQ(log.annotations[0].a, 3u);
  std::remove(path.c_str());
}

// Writes `path` as a copy of a valid log with `mutate` applied to the bytes.
// The valid log goes next to `path`, so tests that ctest runs at the same
// time never share a file.
void write_mutated(const std::string& path,
                   const std::function<void(std::string*)>& mutate) {
  const std::string good = path + ".good";
  std::string error;
  ASSERT_TRUE(save_log(good, make_header(), make_lanes(), &error)) << error;
  std::ifstream in(good, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::remove(good.c_str());
  mutate(&bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ReplayLog, RejectsShortFile) {
  const std::string path = temp_log_path("short");
  write_mutated(path, [](std::string* b) { b->resize(16); });
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(path, &log, &error));
  EXPECT_NE(error.find("shorter than a log header"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayLog, RejectsBadMagic) {
  const std::string path = temp_log_path("magic");
  write_mutated(path, [](std::string* b) { (*b)[0] = 'X'; });
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(path, &log, &error));
  EXPECT_NE(error.find("no DFTHLOG1 magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayLog, RejectsUnknownVersion) {
  const std::string path = temp_log_path("version");
  write_mutated(path, [](std::string* b) { (*b)[8] = 99; });
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(path, &log, &error));
  EXPECT_NE(error.find("format version"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayLog, RejectsTruncatedLaneBlock) {
  const std::string path = temp_log_path("truncated");
  write_mutated(path, [](std::string* b) { b->resize(b->size() - 24); });
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(path, &log, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayLog, RejectsCorruptedRecordBytes) {
  const std::string path = temp_log_path("checksum");
  // Flip payload bytes in the last record, past every header field the
  // structural checks read — only the checksum can catch this.
  write_mutated(path, [](std::string* b) { (*b)[b->size() - 1] ^= 0x5a; });
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(path, &log, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(ReplayLog, RejectsMissingFile) {
  LoadedLog log;
  std::string error;
  EXPECT_FALSE(load_log(temp_log_path("nonexistent"), &log, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

}  // namespace
}  // namespace dfth::replay
