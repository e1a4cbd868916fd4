#include "space/tracked_heap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "analyze/san_fibers.h"
#include "runtime/api.h"

namespace dfth {
namespace {

TEST(TrackedHeap, LiveAndPeakAccounting) {
  auto& heap = TrackedHeap::instance();
  heap.begin_epoch();
  const auto base_live = heap.live_bytes();

  void* a = heap.allocate(1000);
  EXPECT_EQ(heap.live_bytes(), base_live + 1000);
  void* b = heap.allocate(2000);
  EXPECT_EQ(heap.live_bytes(), base_live + 3000);
  EXPECT_GE(heap.peak_bytes(), base_live + 3000);

  heap.deallocate(a);
  EXPECT_EQ(heap.live_bytes(), base_live + 2000);
  // Peak does not fall.
  EXPECT_GE(heap.peak_bytes(), base_live + 3000);
  heap.deallocate(b);
  EXPECT_EQ(heap.live_bytes(), base_live);
}

TEST(TrackedHeap, AllocatedSizeRecorded) {
  auto& heap = TrackedHeap::instance();
  void* p = heap.allocate(12345);
  EXPECT_EQ(TrackedHeap::allocated_size(p), 12345u);
  heap.deallocate(p);
}

TEST(TrackedHeap, FreshBytesOnlyAbovePeak) {
  auto& heap = TrackedHeap::instance();
  heap.begin_epoch();
  std::int64_t fresh = 0;
  void* a = heap.allocate_ex(5000, &fresh);
  EXPECT_EQ(fresh, 5000);
  heap.deallocate(a);
  // Second allocation of the same size fits under the existing peak.
  void* b = heap.allocate_ex(5000, &fresh);
  EXPECT_EQ(fresh, 0);
  // Larger allocation is fresh only for the excess.
  void* c = heap.allocate_ex(3000, &fresh);
  EXPECT_EQ(fresh, 3000);
  heap.deallocate(b);
  heap.deallocate(c);
}

TEST(TrackedHeap, EpochResetsPeakToLive) {
  auto& heap = TrackedHeap::instance();
  void* a = heap.allocate(4096);
  heap.begin_epoch();
  EXPECT_EQ(heap.peak_bytes(), heap.live_bytes());
  heap.deallocate(a);
}

TEST(TrackedHeap, WriteDoesNotCorruptHeader) {
  auto& heap = TrackedHeap::instance();
  void* p = heap.allocate(64);
  std::memset(p, 0xAB, 64);
  EXPECT_EQ(TrackedHeap::allocated_size(p), 64u);
  heap.deallocate(p);
}

TEST(TrackedHeap, NullFreeIsNoop) { TrackedHeap::instance().deallocate(nullptr); }

TEST(TrackedHeap, ForeignPointerFreeAborts) {
  int x = 0;
  EXPECT_DEATH(TrackedHeap::instance().deallocate(&x), "df_free");
}

TEST(TrackedHeap, ConcurrentAccountingIsExact) {
  auto& heap = TrackedHeap::instance();
  heap.begin_epoch();
  const auto base_live = heap.live_bytes();
  constexpr int kThreads = 8, kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&heap] {
      for (int i = 0; i < kIters; ++i) {
        void* p = heap.allocate(128);
        heap.deallocate(p);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(heap.live_bytes(), base_live);
}

// ---------- exhaustion is an error return, not an abort ----------

TEST(TrackedHeap, SizeOverflowReturnsNullWithNoSideEffects) {
  // sizeof(Header) + bytes would wrap: the old code handed the wrapped size
  // to malloc (undefined nonsense); allocate_ex now refuses effect-free so
  // the engines' OOM-preempt recovery can retry or surface kNoMem.
  auto& heap = TrackedHeap::instance();
  const auto live = heap.live_bytes();
  const auto allocs = heap.alloc_count();
  std::int64_t fresh = 123;
  void* p = heap.allocate_ex(SIZE_MAX - 4, &fresh);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(fresh, 0);
  EXPECT_EQ(heap.live_bytes(), live);
  EXPECT_EQ(heap.alloc_count(), allocs);
}

#if !defined(DFTH_ASAN_ENABLED) && !defined(DFTH_TSAN_ENABLED)
TEST(TrackedHeap, BackingMallocFailureReturnsNullWithNoSideEffects) {
  // A genuinely impossible (but non-overflowing) request: malloc itself
  // returns nullptr. Sanitizer builds skip this — their allocators abort on
  // huge requests instead of returning null.
  auto& heap = TrackedHeap::instance();
  const auto live = heap.live_bytes();
  std::int64_t fresh = 123;
  void* p = heap.allocate_ex(std::size_t{1} << 62, &fresh);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(fresh, 0);
  EXPECT_EQ(heap.live_bytes(), live);
}
#endif

TEST(TrackedHeap, DfTryMallocOutsideRunReportsOk) {
  // Usable outside run(): plain tracked allocation with an explicit status.
  DfStatus status = DfStatus::kNoMem;
  void* p = df_try_malloc(64, &status);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(status, DfStatus::kOk);
  std::memset(p, 0xCD, 64);
  df_free(p);
}

}  // namespace
}  // namespace dfth
