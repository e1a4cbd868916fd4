#include "space/stack_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "resil/faults.h"

namespace dfth {
namespace {

TEST(StackPool, AcquireGivesWritableRegion) {
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(32 << 10);
  ASSERT_TRUE(s);
  EXPECT_GE(s.size, 32u << 10);
  // Entire usable region is writable.
  std::memset(s.base, 0x5A, s.size);
  pool.release(s);
}

TEST(StackPool, ReusesSameSizeClass) {
  auto& pool = StackPool::instance();
  pool.begin_epoch();
  Stack a = pool.acquire(64 << 10);
  void* base = a.base;
  pool.release(a);
  Stack b = pool.acquire(64 << 10);
  EXPECT_EQ(b.base, base);
  EXPECT_FALSE(b.fresh);
  EXPECT_EQ(pool.reuse_count(), 1u);
  pool.release(b);
}

TEST(StackPool, DifferentSizesDoNotMix) {
  auto& pool = StackPool::instance();
  pool.trim();
  Stack a = pool.acquire(16 << 10);
  pool.release(a);
  Stack b = pool.acquire(32 << 10);
  EXPECT_TRUE(b.fresh);
  pool.release(b);
  pool.trim();
}

TEST(StackPool, LivePeakAccounting) {
  auto& pool = StackPool::instance();
  pool.trim();
  pool.begin_epoch();
  const auto base_live = pool.live_bytes();
  Stack a = pool.acquire(16 << 10);
  Stack b = pool.acquire(16 << 10);
  EXPECT_EQ(pool.live_bytes(), base_live + 2 * (16 << 10));
  pool.release(a);
  EXPECT_EQ(pool.live_bytes(), base_live + (16 << 10));
  EXPECT_GE(pool.peak_bytes(), base_live + 2 * (16 << 10));
  pool.release(b);
}

TEST(StackPool, SizeRoundsToPages) {
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(1);  // sub-page request
  EXPECT_GE(s.size, 4096u);
  EXPECT_EQ(s.size % 4096, 0u);
  pool.release(s);
}

TEST(StackPool, TopIsOnePastTheUsableRegion) {
  // Regression: top() used to mix the guard page into its arithmetic and
  // point below the true stack top, silently wasting usable bytes and (for
  // downward-growing fibers) seeding the context one page short. It is
  // defined as exactly base + size.
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(16 << 10);
  ASSERT_TRUE(s);
  EXPECT_EQ(s.top(), static_cast<char*>(s.base) + s.size);
  // The highest usable bytes really are usable: a fiber's first frame lands
  // right below top().
  auto* word = reinterpret_cast<std::uint64_t*>(static_cast<char*>(s.top()) - 8);
  *word = 0xfeedfacecafebeefull;
  EXPECT_EQ(*word, 0xfeedfacecafebeefull);
  pool.release(s);
}

// Two kernel threads acquire and release through their own caches and the
// shared one at once; every counter still adds up exactly.
TEST(StackPool, CountsStayExactAcrossTwoThreads) {
  auto& pool = StackPool::instance();
  pool.trim();
  pool.begin_epoch();
  const std::int64_t live0 = pool.live_bytes();
  constexpr int kRounds = 50;
  constexpr int kBatch = StackPool::kLocalStacks + 8;  // spills every round
  constexpr std::size_t kSize = 24 << 10;
  auto churn = [&pool] {
    std::vector<Stack> held;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kBatch; ++i) held.push_back(pool.acquire(kSize));
      for (Stack& s : held) pool.release(s);
      held.clear();
    }
  };
  std::thread a(churn);
  std::thread b(churn);
  a.join();
  b.join();
  EXPECT_EQ(pool.fresh_count() + pool.reuse_count(),
            static_cast<std::uint64_t>(2 * kRounds * kBatch));
  // Reuse crosses threads only through the shared cache, so each thread's
  // own cache can hide up to kLocalStacks stacks from the other.
  EXPECT_LE(pool.fresh_count(),
            static_cast<std::uint64_t>(2 * (kBatch + StackPool::kLocalStacks)));
  EXPECT_EQ(pool.live_bytes(), live0);
  EXPECT_GE(pool.peak_bytes(), live0 + static_cast<std::int64_t>(kBatch * kSize));
  EXPECT_LE(pool.peak_bytes(), live0 + static_cast<std::int64_t>(2 * kBatch * kSize));
  pool.trim();
}

// A thread keeps at most kLocalStacks released stacks: past that it spills
// half to the shared cache, and an empty cache refills from there — every
// acquire of the second pass reuses a stack of the first.
TEST(StackPool, LocalCacheSpillsAndRefills) {
  auto& pool = StackPool::instance();
  pool.trim();
  constexpr int kCount = StackPool::kLocalStacks + 8;
  constexpr std::size_t kSize = 28 << 10;
  std::thread t([&pool] {
    std::vector<Stack> held;
    for (int i = 0; i < kCount; ++i) held.push_back(pool.acquire(kSize));
    for (Stack& s : held) pool.release(s);
    EXPECT_EQ(pool.cached_count(), static_cast<std::size_t>(kCount));
    const std::uint64_t fresh = pool.fresh_count();
    const std::uint64_t reused = pool.reuse_count();
    held.clear();
    for (int i = 0; i < kCount; ++i) held.push_back(pool.acquire(kSize));
    EXPECT_EQ(pool.fresh_count(), fresh);
    EXPECT_EQ(pool.reuse_count(), reused + kCount);
    EXPECT_EQ(pool.cached_count(), 0u);
    for (Stack& s : held) pool.release(s);
  });
  t.join();
  pool.trim();
}

// A worker thread's cache goes back to the shared cache when it exits, so a
// trim between runs unmaps every cached stack.
TEST(StackPool, TrimAfterThreadsExitLeavesNoCachedStack) {
  auto& pool = StackPool::instance();
  pool.trim();
  ASSERT_EQ(pool.cached_count(), 0u);
  std::atomic<int> holding{0};
  auto worker = [&pool, &holding] {
    Stack s[4];
    for (Stack& x : s) x = pool.acquire(36 << 10);
    // Both threads hold their stacks at once, so there are eight.
    holding.fetch_add(1);
    while (holding.load() < 2) std::this_thread::yield();
    for (Stack& x : s) pool.release(x);
  };
  std::thread a(worker);
  std::thread b(worker);
  a.join();
  b.join();
  EXPECT_EQ(pool.cached_count(), 8u);  // both caches, back in the shared one
  pool.trim();
  EXPECT_EQ(pool.cached_count(), 0u);
}

TEST(StackPool, HeapFallbackWhenMappingIsFailed) {
  if (!resil::kFaultsEnabled) {
    GTEST_SKIP() << "build has no fault hooks (-DDFTH_FAULTS=OFF)";
  }
  auto& pool = StackPool::instance();
  pool.trim();  // empty the cache so acquire must reach the mmap site
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kStackMmap).probability = 1.0;
  resil::FaultInjector::instance().arm(plan);
  Stack s = pool.acquire(20 << 10);
  resil::FaultInjector::instance().disarm();
  // Every mapping attempt "failed", so the pool degraded to a guard-less
  // heap-backed stack — still fully usable.
  ASSERT_TRUE(s);
  EXPECT_TRUE(s.heap);
  EXPECT_GE(s.size, 20u << 10);
  std::memset(s.base, 0x5A, s.size);
  EXPECT_EQ(s.top(), static_cast<char*>(s.base) + s.size);
  pool.release(s);  // freed immediately, not cached
  Stack again = pool.acquire(20 << 10);
  EXPECT_FALSE(again.heap);  // injector disarmed: mmap works again
  EXPECT_TRUE(again.fresh);  // and the heap stack was not in the cache
  pool.release(again);
  pool.trim();
}

TEST(StackPoolDeathTest, GuardPageCatchesOverflow) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        auto& pool = StackPool::instance();
        Stack s = pool.acquire(8 << 10);
        // Write below the usable region — into the PROT_NONE guard page.
        static_cast<char*>(s.base)[-1] = 1;
      },
      "");
}

}  // namespace
}  // namespace dfth
