// Fiber stack management with caching, mirroring the Solaris Pthreads
// behaviour the paper studies in §4 item 3.
//
// Solaris caches freed default-size (1 MB) thread stacks for reuse; a fresh
// stack costs an mmap + page faults (the paper measures 200 µs for 8 KB up
// to 260 µs for 1 MB), while a cached one is nearly free. We reproduce that
// structure: stacks are mmap'd with a PROT_NONE guard page below the usable
// region, cached per size class on release, and the pool reports
// fresh-vs-reused counts plus live/peak stack bytes so engines can charge
// the right virtual cost and report stack footprints.
//
// Release and reuse stay off the shared lock: each kernel thread keeps a
// bounded cache of released stacks of one size class (at most
// kLocalStacks), spilling half of it to the shared per-size-class cache
// when full and refilling from there when empty, under the pool's mutex.
// A release also goes to the shared cache whenever that cache is empty, so
// a thread that spawns for others never waits on their caches to fill.
// A thread's cache returns to the shared cache when the thread exits, so
// trim() after a run's workers are joined still unmaps every cached stack.
// The counters (fresh, reuse, live, peak, high water) are exact atomics.
//
// Resource exhaustion is recoverable, not fatal: when the mapping syscalls
// fail (or the resil fault injector says they did), acquire() trims the
// idle cache and retries with exponential backoff, then degrades to a
// guard-less heap-backed stack, and only returns a null Stack once even the
// heap is gone — callers (the engines) then degrade further by running the
// child inline on its parent's stack.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dfth {

struct Stack {
  void* base = nullptr;    ///< start of the *usable* region; null = "no stack".
  std::size_t size = 0;    ///< usable bytes (excludes the guard page).
  bool fresh = false;      ///< true if this acquire mapped/allocated rather than reused.
  bool heap = false;       ///< guard-less heap fallback; freed (not cached) on release.

  /// One-past-the-highest usable address; fiber stacks grow downward from
  /// here. `base` is the usable-region start (the guard page, when present,
  /// sits *below* base and is not part of [base, top())).
  void* top() const;
  explicit operator bool() const { return base != nullptr; }
};

class StackPool {
 public:
  static StackPool& instance();

  /// Returns a stack with at least `usable_bytes` of usable space (rounded
  /// up to a whole number of pages). Reuses a cached stack of the same size
  /// class when available. Under resource exhaustion it retries (trimming
  /// the cache, backing off exponentially), then falls back to a
  /// heap-backed stack without a guard page; a null Stack is returned only
  /// when every fallback failed.
  Stack acquire(std::size_t usable_bytes);

  /// Returns the stack to the calling thread's cache (does not unmap).
  /// Heap-backed fallback stacks are freed immediately instead of cached.
  void release(Stack stack);

  /// Unmaps every stack in the shared cache and in the calling thread's own
  /// (used between experiments, by tests, and by acquire() itself under
  /// memory pressure). Other live threads keep their caches.
  void trim();

  /// Stacks cached in the shared cache plus the calling thread's own.
  std::size_t cached_count() const;

  /// The most released stacks one thread keeps before spilling half.
  static constexpr int kLocalStacks = 32;

  // -- statistics ---------------------------------------------------------
  std::uint64_t fresh_count() const;
  std::uint64_t reuse_count() const;
  std::int64_t live_bytes() const;   ///< bytes in stacks currently acquired
  std::int64_t peak_bytes() const;   ///< high water of live_bytes
  void begin_epoch();                ///< reset peak + counters to current

  /// Largest per-fiber stack usage observed: bytes actually written on any
  /// single stack, measured at release() by scanning for the watermark
  /// pattern painted at acquire(). Only -DDFTH_STACK_USAGE builds paint and
  /// scan (touching every page defeats lazy allocation, so it is opt-in);
  /// elsewhere this is always 0. tools/stack_bound.py compares this
  /// observed value against the static worst-case bound.
  std::int64_t high_water_bytes() const;

  ~StackPool();

 private:
  /// One kernel thread's released stacks, all of one size class.
  struct LocalCache {
    std::size_t size = 0;  ///< the size class held (meaningful when n > 0)
    int n = 0;
    void* bases[kLocalStacks];
    ~LocalCache();  ///< returns the stacks to the shared cache
  };
  static thread_local LocalCache tl_cache_;

  StackPool() = default;

  /// Shared-cache half of release/acquire, under mu_.
  void spill(LocalCache& lc, int keep);
  /// A shared stack of class `size`, or nullptr; an empty lc is refilled
  /// with up to kLocalStacks / 2 - 1 more.
  void* take_shared(LocalCache& lc, std::size_t size);
  /// Accounts `bytes` more (or fewer) live stack bytes.
  void add_live(std::int64_t bytes);
  void unmap_cached(std::size_t size, void* usable_lo);

  mutable std::mutex mu_;  ///< guards cache_
  std::unordered_map<std::size_t, std::vector<void*>> cache_;  // size -> bases
  /// Stacks in cache_, written under mu_ and read without it.
  std::atomic<std::size_t> shared_count_{0};
  // One line: an acquire writes live_ and reuse_ (or fresh_) together.
  alignas(64) std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::uint64_t> fresh_{0};
  std::atomic<std::uint64_t> reuse_{0};
  std::atomic<std::int64_t> high_water_{0};
};

}  // namespace dfth
