// TraceRing and Tracer mechanics: fixed capacity with counted (never
// silent) overflow, concurrent-writer safety, merge ordering, and the
// counter auto-bump contract.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace dfth::obs {
namespace {

TraceEvent ev(std::uint64_t ts, std::uint64_t tid) {
  TraceEvent e;
  e.ts_ns = ts;
  e.tid = tid;
  e.arg = tid;  // marker: arg must always equal tid (torn-write detector)
  e.kind = EvKind::Fork;
  return e;
}

TEST(TraceRingTest, KeepsEarliestAndCountsOverflowDrops) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) ring.push(ev(i, i));

  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);

  // Keep-earliest: the first 8 events survive, in write order.
  const std::vector<TraceEvent> events = ring.drain();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].ts_ns, i);
    EXPECT_EQ(events[i].tid, i);
  }
}

TEST(TraceRingTest, NothingLostUnderConcurrentWriters) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  TraceRing ring(1 << 12);  // smaller than total pushes: forces overflow

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t tag =
            (static_cast<std::uint64_t>(w) << 32) | i;
        ring.push(ev(i, tag));
      }
    });
  }
  for (auto& t : writers) t.join();

  // Every push is either stored or counted as dropped — none vanish.
  EXPECT_EQ(ring.size() + ring.dropped(), kWriters * kPerWriter);
  EXPECT_EQ(ring.size(), ring.capacity());

  // Keep-earliest makes each slot single-writer: no torn events.
  for (const TraceEvent& e : ring.drain()) {
    EXPECT_EQ(e.arg, e.tid);
    EXPECT_EQ(e.ts_ns, e.tid & 0xffffffffu);
  }
}

TEST(TracerTest, MergedIsSortedByTimestampAcrossLanes) {
  Tracer tr;
  tr.begin_run(3, [] { return std::uint64_t{0}; });
  // Interleave out-of-order timestamps across lanes.
  tr.emit_at(0, EvKind::Fork, 30, 1, 0);
  tr.emit_at(1, EvKind::Fork, 10, 2, 0);
  tr.emit_at(2, EvKind::Fork, 20, 3, 0);
  tr.emit_at(0, EvKind::Fork, 40, 4, 0);
  tr.end_run();

  const std::vector<TraceEvent> merged = tr.merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].ts_ns, merged[i].ts_ns);
  }
}

TEST(TracerTest, EmitBumpsTheKindMappedCounter) {
  Tracer tr;
  tr.begin_run(1, [] { return std::uint64_t{0}; });
  tr.emit(0, EvKind::Fork, 1, 2);
  tr.emit(0, EvKind::Dispatch, 1, 0);
  tr.emit(0, EvKind::Dispatch, 1, 1);
  // A steal is counted by its event too: the policies no longer count it.
  tr.emit(0, EvKind::Steal, 1, 0);
  // Stack and heap events count nothing: those counters count every
  // operation at their own source, not just the traced ones.
  tr.emit(0, EvKind::StackFresh, 1, 4096);
  tr.emit(0, EvKind::Alloc, 1, 4096);
  tr.end_run();

  EXPECT_EQ(tr.counter(Counter::Forks), 1u);
  EXPECT_EQ(tr.counter(Counter::Dispatches), 2u);
  EXPECT_EQ(tr.counter(Counter::Steals), 1u);
  EXPECT_EQ(tr.counter(Counter::StacksFresh), 0u);
  EXPECT_EQ(tr.counter(Counter::Allocs), 0u);
  EXPECT_EQ(tr.event_count(), 6u);
}

TEST(TracerTest, LaneOutOfRangeIsClampedNotDropped) {
  Tracer tr;
  tr.begin_run(2, [] { return std::uint64_t{0}; });
  tr.emit_at(-1, EvKind::Fork, 1, 1, 0);
  tr.emit_at(99, EvKind::Fork, 2, 2, 0);
  tr.end_run();
  EXPECT_EQ(tr.lane_events(0).size(), 1u);
  EXPECT_EQ(tr.lane_events(1).size(), 1u);
  EXPECT_EQ(tr.dropped(), 0u);
}

}  // namespace
}  // namespace dfth::obs
