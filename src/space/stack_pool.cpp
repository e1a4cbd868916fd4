#include "space/stack_pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "analyze/san_fibers.h"
#include "resil/faults.h"
#include "space/tracked_heap.h"
#include "util/check.h"

namespace dfth {
namespace {

// Mapping attempts before degrading to a heap-backed stack. Attempt n > 0 is
// preceded by a cache trim and a (50 µs << n) backoff, so a transient
// address-space shortage has three chances to clear.
constexpr int kMapAttempts = 4;

std::size_t page_size() {
  static const std::size_t size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t mask = page_size() - 1;
  return (bytes + mask) & ~mask;
}

/// Raises `peak` to at least `v`.
template <typename T>
void raise_to(std::atomic<T>& peak, T v) {
  T cur = peak.load(std::memory_order_relaxed);
  while (v > cur &&
         !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

#if DFTH_STACK_USAGE
// Watermark pattern for per-fiber usage measurement: acquire() paints the
// whole usable region, release() scans upward from the low end (stacks grow
// downward) for the first overwritten byte. An unlikely byte value keeps
// false low readings rare.
constexpr unsigned char kStackPaint = 0xDF;

void paint_stack(void* base, std::size_t size) {
  std::memset(base, kStackPaint, size);
}

std::size_t painted_usage(const void* base, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(base);
  std::size_t i = 0;
  while (i < size && p[i] == kStackPaint) ++i;
  return size - i;
}
#endif

}  // namespace

void* Stack::top() const {
  // `base` already points at the usable-region start — the guard page (when
  // this is a mapped stack) lies entirely below it, so the usable span is
  // exactly [base, base + size).
  DFTH_DCHECK(reinterpret_cast<std::uintptr_t>(base) % page_size() == 0);
  return static_cast<char*>(base) + size;
}

thread_local StackPool::LocalCache StackPool::tl_cache_;

StackPool& StackPool::instance() {
  static StackPool* pool = new StackPool();  // leaked: outlives all fibers
  return *pool;
}

Stack StackPool::acquire(std::size_t usable_bytes) {
  const std::size_t usable = round_up_pages(usable_bytes == 0 ? page_size() : usable_bytes);

  // Both stack-site fault draws happen up front, on *every* acquire, not on
  // the fresh-mapping path only: reuse-vs-fresh is pool state that the
  // record/replay log (src/replay/) does not order, so the per-acquire probe
  // sequence must not depend on it — a replayed run that reuses where the
  // recording mapped fresh would otherwise probe a different site sequence
  // and be reported as a divergence. An injected failure forces the
  // fresh-mapping path below, which treats it as attempt 0's failure.
  const bool pre_inj_mmap = DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kStackMmap);
  const bool pre_inj_mprotect =
      !pre_inj_mmap && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kStackMprotect);

  if (!pre_inj_mmap && !pre_inj_mprotect) {
    LocalCache& lc = tl_cache_;
    void* base = (lc.n > 0 && lc.size == usable) ? lc.bases[--lc.n]
                                                 : take_shared(lc, usable);
    if (base != nullptr) {
      reuse_.fetch_add(1, std::memory_order_relaxed);
      add_live(static_cast<std::int64_t>(usable));
      // Cached stacks are poisoned while idle (release below); re-arm.
      san::unpoison_stack(base, usable);
#if DFTH_STACK_USAGE
      paint_stack(base, usable);
#endif
      return Stack{base, usable, /*fresh=*/false, /*heap=*/false};
    }
  }

  // Fresh mapping: guard page + usable region. The guard page sits at the
  // *start* of the mapping because stacks grow downward from top().
  const std::size_t total = usable + page_size();
  bool mmap_failed = false;
  bool mprotect_failed = false;
  for (int attempt = 0; attempt < kMapAttempts; ++attempt) {
    if (attempt > 0) {
      // Resource pressure: hand the idle cached stacks back to the OS, back
      // off exponentially, then ask again.
      trim();
      std::this_thread::sleep_for(std::chrono::microseconds(50u << attempt));
    }
    // Attempt 0 consumes the pre-lookup draws; later attempts draw afresh.
    const bool inj_mmap = attempt == 0
                              ? pre_inj_mmap
                              : DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kStackMmap);
    void* mapping = MAP_FAILED;
    if (inj_mmap) {
      mmap_failed = true;
    } else {
      mapping = ::mmap(nullptr, total, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (mapping == MAP_FAILED) mmap_failed = true;
    }
    if (mapping == MAP_FAILED) continue;
    void* usable_lo = static_cast<char*>(mapping) + page_size();
    const bool inj_mprotect =
        attempt == 0 ? pre_inj_mprotect
                     : DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kStackMprotect);
    if (inj_mprotect ||
        ::mprotect(usable_lo, usable, PROT_READ | PROT_WRITE) != 0) {
      mprotect_failed = true;
      ::munmap(mapping, total);
      continue;
    }

    fresh_.fetch_add(1, std::memory_order_relaxed);
    add_live(static_cast<std::int64_t>(usable));
    if (mmap_failed) DFTH_FAULT_RECOVERED(resil::FaultSite::kStackMmap);
    if (mprotect_failed) DFTH_FAULT_RECOVERED(resil::FaultSite::kStackMprotect);
    // Stack.base stores the start of the *usable* region; release() and
    // trim() recompute the mapping base from it.
#if DFTH_STACK_USAGE
    paint_stack(usable_lo, usable);
#endif
    return Stack{usable_lo, usable, /*fresh=*/true, /*heap=*/false};
  }

  // Every mapping attempt failed: degrade to a plain heap allocation. No
  // guard page — an overflow corrupts the heap instead of faulting — but a
  // degraded run beats an aborted one, and the engines still account the
  // bytes. Page-aligned so top()/context_make see the same geometry.
  void* heap_base = std::aligned_alloc(page_size(), usable);
  if (heap_base == nullptr) return Stack{};  // caller degrades further
  fresh_.fetch_add(1, std::memory_order_relaxed);
  add_live(static_cast<std::int64_t>(usable));
  if (mmap_failed) DFTH_FAULT_RECOVERED(resil::FaultSite::kStackMmap);
  if (mprotect_failed) DFTH_FAULT_RECOVERED(resil::FaultSite::kStackMprotect);
#if DFTH_STACK_USAGE
  paint_stack(heap_base, usable);
#endif
  return Stack{heap_base, usable, /*fresh=*/true, /*heap=*/true};
}

void StackPool::release(Stack stack) {
  if (!stack) return;
  // Retire race-detector shadow covering the stack before it can be recycled:
  // a later fiber reusing this region must not inherit epochs from a dead
  // one's locals (the same reuse hazard df_free handles for heap blocks).
  // O(1) while the shadow table is empty, i.e. in every non-race run.
  TrackedHeap::instance().shadow().clear_range(stack.base, stack.size);
#if DFTH_STACK_USAGE
  const auto used = static_cast<std::int64_t>(painted_usage(stack.base, stack.size));
#else
  constexpr std::int64_t used = 0;
#endif
  raise_to(high_water_, used);
  if (stack.heap) {
    // Heap-backed fallback stacks exist only under memory pressure; free
    // them immediately rather than caching a guard-less stack for reuse.
    std::free(stack.base);
    add_live(-static_cast<std::int64_t>(stack.size));
    return;
  }
  // Poison the idle stack: any access to a cached-but-unowned stack (a
  // use-after-exit through a stale fiber pointer) becomes an ASan report.
  san::poison_stack(stack.base, stack.size);
  add_live(-static_cast<std::int64_t>(stack.size));
  LocalCache& lc = tl_cache_;
  if ((lc.n > 0 && lc.size != stack.size) ||
      shared_count_.load(std::memory_order_relaxed) == 0) {
    // Share this one: the thread's cache holds another size class, or the
    // shared cache ran dry and a thread that spawns more than it retires
    // (a fiber forking for others to run) would otherwise map every stack
    // fresh while the released ones sit in other threads' caches.
    std::lock_guard<std::mutex> lock(mu_);
    cache_[stack.size].push_back(stack.base);
    shared_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (lc.n == kLocalStacks) spill(lc, kLocalStacks / 2);
  lc.size = stack.size;
  lc.bases[lc.n++] = stack.base;
}

void StackPool::add_live(std::int64_t bytes) {
  const std::int64_t live = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes > 0) raise_to(peak_, live);
}

void StackPool::spill(LocalCache& lc, int keep) {
  if (lc.n <= keep) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<void*>& shared = cache_[lc.size];
  // The oldest entries go; the most recently released (warmest) stay.
  shared.insert(shared.end(), lc.bases, lc.bases + (lc.n - keep));
  shared_count_.fetch_add(static_cast<std::size_t>(lc.n - keep),
                          std::memory_order_relaxed);
  std::copy(lc.bases + (lc.n - keep), lc.bases + lc.n, lc.bases);
  lc.n = keep;
}

void* StackPool::take_shared(LocalCache& lc, std::size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(size);
  if (it == cache_.end() || it->second.empty()) return nullptr;
  std::vector<void*>& shared = it->second;
  if (lc.n == 0) {
    // Refill the thread's empty cache with half a batch of this class.
    const std::size_t take =
        std::min<std::size_t>(kLocalStacks / 2, shared.size());
    lc.size = size;
    for (std::size_t i = 1; i < take; ++i) {
      lc.bases[lc.n++] = shared.back();
      shared.pop_back();
    }
    shared_count_.fetch_sub(take - 1, std::memory_order_relaxed);
  }
  void* base = shared.back();
  shared.pop_back();
  shared_count_.fetch_sub(1, std::memory_order_relaxed);
  return base;
}

StackPool::LocalCache::~LocalCache() {
  if (n > 0) StackPool::instance().spill(*this, 0);
}

void StackPool::unmap_cached(std::size_t size, void* usable_lo) {
  // Clear our poisoning before the pages go back to the OS — the address
  // range may be recycled by an unrelated mmap with stale shadow.
  san::unpoison_stack(usable_lo, size);
  void* mapping = static_cast<char*>(usable_lo) - page_size();
  ::munmap(mapping, size + page_size());
}

void StackPool::trim() {
  LocalCache& lc = tl_cache_;
  for (int i = 0; i < lc.n; ++i) unmap_cached(lc.size, lc.bases[i]);
  lc.n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [size, bases] : cache_) {
    for (void* usable_lo : bases) unmap_cached(size, usable_lo);
  }
  cache_.clear();
  shared_count_.store(0, std::memory_order_relaxed);
}

std::size_t StackPool::cached_count() const {
  std::size_t n = static_cast<std::size_t>(tl_cache_.n);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [size, bases] : cache_) n += bases.size();
  return n;
}

std::uint64_t StackPool::fresh_count() const {
  return fresh_.load(std::memory_order_relaxed);
}

std::uint64_t StackPool::reuse_count() const {
  return reuse_.load(std::memory_order_relaxed);
}

std::int64_t StackPool::live_bytes() const {
  return live_.load(std::memory_order_relaxed);
}

std::int64_t StackPool::peak_bytes() const {
  return peak_.load(std::memory_order_relaxed);
}

std::int64_t StackPool::high_water_bytes() const {
  return high_water_.load(std::memory_order_relaxed);
}

void StackPool::begin_epoch() {
  peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  fresh_.store(0, std::memory_order_relaxed);
  reuse_.store(0, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
}

StackPool::~StackPool() { trim(); }

}  // namespace dfth
