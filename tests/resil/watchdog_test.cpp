// Stall watchdog and flight recorder (src/resil/watchdog.h).
//
// The dump function itself is exercised directly (it writes, it does not
// abort); the engine trips are death tests — a SimEngine virtual-time
// deadline and a RealEngine wall-clock no-progress deadline, each on a
// workload that would otherwise hang forever.
#include "resil/watchdog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The dump lists both threads of a hung run, exactly one of them main.
void expect_two_threads_one_main(const std::string& dump) {
  EXPECT_NE(dump.find("-- threads (2 total) --"), std::string::npos) << dump;
  int mains = 0;
  std::istringstream lines(dump);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  t", 0) == 0 && line.find(" state=") != std::string::npos &&
        line.find(" main") != std::string::npos) {
      ++mains;
    }
  }
  EXPECT_EQ(mains, 1) << dump;
}

TEST(FlightRecorder, DumpHasEverySectionEvenWithNothingToReport) {
  resil::FlightInfo info;
  info.reason = "unit test";
  info.engine = "none";
  info.lanes.push_back({0, nullptr});
  resil::WatchdogConfig cfg;
  cfg.dump_path = ::testing::TempDir() + "dfth_flight_unit.txt";
  resil::dump_flight_recorder(info, cfg);

  const std::string dump = slurp(cfg.dump_path);
  EXPECT_NE(dump.find("==== DFTH FLIGHT RECORDER ===="), std::string::npos);
  EXPECT_NE(dump.find("reason: unit test"), std::string::npos);
  EXPECT_NE(dump.find("lane 0: idle"), std::string::npos);
  EXPECT_NE(dump.find("-- trace-ring tail --"), std::string::npos);
  EXPECT_NE(dump.find("-- fault injection --"), std::string::npos);
  // Counters and histograms belong to a trace session; there is none.
  EXPECT_NE(dump.find("-- counters (live values at abort) --\n"
                      "  (no trace session installed)"),
            std::string::npos);
  EXPECT_NE(dump.find("-- histograms (live at abort) --\n"
                      "  (no trace session installed)"),
            std::string::npos);
  EXPECT_NE(dump.find("==== END FLIGHT RECORDER ===="), std::string::npos);
}

TEST(WatchdogDeathTest, SimVirtualDeadlineTripsAndDumpsFlightRecorder) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dump_path = ::testing::TempDir() + "dfth_flight_sim.txt";
  std::remove(dump_path.c_str());
  auto hang = [&dump_path] {
    obs::Tracer tracer;
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 2;
    o.default_stack_size = 8 << 10;
    o.tracer = &tracer;
    o.watchdog.virtual_deadline_ns = 2'000'000;  // 2 virtual ms
    o.watchdog.dump_path = dump_path;
    run(o, [] {
      auto t = spawn([]() -> void* {
        // Burns virtual time forever; only the watchdog can end this run.
        while (true) {
          annotate_work(100'000);
          yield();
        }
        return nullptr;
      });
      join(t);
    });
  };
  EXPECT_DEATH(hang(), "DFTH FLIGHT RECORDER");

  // The aborting child wrote the dump before dying; check the promised
  // contents: per-thread state with held locks, the AsyncDF order list, and
  // the trace-ring tail.
  const std::string dump = slurp(dump_path);
  EXPECT_NE(dump.find("virtual-time deadline"), std::string::npos) << dump;
  expect_two_threads_one_main(dump);
  EXPECT_NE(dump.find("held-locks="), std::string::npos) << dump;
  EXPECT_NE(dump.find("order-list"), std::string::npos) << dump;
  EXPECT_NE(dump.find("-- trace-ring tail --"), std::string::npos) << dump;
  // A trace session was installed, so the tail has real events and the
  // counters section its live per-lane counts.
  EXPECT_NE(dump.find(" ns lane "), std::string::npos) << dump;
  EXPECT_NE(dump.find("\n  dispatches "), std::string::npos) << dump;
  EXPECT_NE(dump.find("\n  dispatch_gap_ns  count="), std::string::npos) << dump;
}

TEST(WatchdogDeathTest, RealStallDeadlineTripsOnNoProgress) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string dump_path = ::testing::TempDir() + "dfth_flight_real.txt";
  std::remove(dump_path.c_str());
  auto hang = [&dump_path] {
    RuntimeOptions o;
    o.engine = EngineKind::Real;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 2;
    o.default_stack_size = 16 << 10;
    o.watchdog.stall_deadline_ms = 200;
    o.watchdog.dump_path = dump_path;
    run(o, [] {
      auto t = spawn([]() -> void* {
        // Spins without ever yielding or blocking: not a deadlock (one
        // worker stays busy), but no dispatch/wake/exit progress either —
        // exactly the hang class only the watchdog can report.
        std::atomic<std::uint64_t> spin{0};
        for (;;) spin.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      });
      join(t);
    });
  };
  EXPECT_DEATH(hang(), "DFTH FLIGHT RECORDER");

  const std::string dump = slurp(dump_path);
  EXPECT_NE(dump.find("stall deadline"), std::string::npos) << dump;
  expect_two_threads_one_main(dump);
}

TEST(Watchdog, GenerousDeadlinesDoNotTripHealthyRuns) {
  RuntimeOptions o;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 4;
  o.default_stack_size = 8 << 10;
  o.watchdog.stall_deadline_ms = 60'000;
  o.watchdog.virtual_deadline_ns = 60'000'000'000ull;
  for (const EngineKind engine : {EngineKind::Sim, EngineKind::Real}) {
    o.engine = engine;
    long long sum = 0;
    run(o, [&] {
      Mutex mu;
      std::vector<Thread> threads;
      for (int i = 1; i <= 32; ++i) {
        threads.push_back(spawn([&, i]() -> void* {
          LockGuard lock(mu);
          sum += i;
          return nullptr;
        }));
      }
      for (auto& t : threads) join(t);
    });
    EXPECT_EQ(sum, 32 * 33 / 2) << to_string(engine);
  }
}

}  // namespace
}  // namespace dfth
