// Heap accounting — the substrate for every space measurement in the paper.
//
// All benchmark allocations go through df_malloc/df_free (runtime/api.h),
// which delegate here. The heap records live bytes, the historical peak
// ("high water mark of total heap memory allocation", the paper's space
// metric in Figs 5b, 7b and 9), allocation counts, and the number of bytes
// that were *fresh* (grew the peak) — the simulator charges fresh pages more
// because the OS must zero-fill and map them.
//
// Thread-safe: counters are atomics; the real engine allocates from many
// kernel threads concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dfth {

class TrackedHeap {
 public:
  static TrackedHeap& instance();

  /// Allocates `bytes` (16-byte aligned) and records it. Returns nullptr on
  /// exhaustion with *no* counter mutated — the failure path is effect-free
  /// so callers can retry after the engines' OOM-preempt recovery. No
  /// exception ever leaves this class (a bad_alloc unwinding across a fiber
  /// context switch would kill the process).
  void* allocate(std::size_t bytes);

  /// Frees a pointer from allocate(); nullptr is a no-op.
  void deallocate(void* p);

  /// Size recorded for an allocate()d pointer.
  static std::size_t allocated_size(const void* p);

  std::int64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  std::int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  std::uint64_t alloc_count() const { return allocs_.load(std::memory_order_relaxed); }
  std::uint64_t free_count() const { return frees_.load(std::memory_order_relaxed); }

  /// Starts a new measurement epoch: peak is reset to the current live level.
  /// Engines call this at run() entry so each experiment reports its own peak.
  void begin_epoch();

  /// Bytes by which the given allocation grew the peak (0 if it fit under
  /// the previous high water mark). Returned by allocate via out-param.
  /// Returns nullptr (leaving *fresh_bytes_out zero and every counter
  /// untouched) when the backing allocation fails, when sizeof(Header) +
  /// bytes would overflow, or when the resil injector fails the
  /// `heap.alloc` site.
  /// `probe_faults` = false skips the kHeapAlloc fault-site evaluation:
  /// df_try_malloc's OOM-recovery retries use it, so one allocation request
  /// draws the site exactly once and an injected failure is transient by
  /// construction (an aggressive plan — every 2nd evaluation failing —
  /// could otherwise fail all bounded retries and surface kNoMem into code
  /// that treats allocation as infallible). `injected_out` (may be null)
  /// reports whether a nullptr return was an injected failure as opposed to
  /// the backing malloc failing.
  void* allocate_ex(std::size_t bytes, std::int64_t* fresh_bytes_out,
                    bool probe_faults = true, bool* injected_out = nullptr);

 private:
  TrackedHeap() = default;

  // live_ and peak_ are the paper's space metric: exact and global. The
  // operation counts sit on a line of their own so the two pairs of
  // read-modify-writes on every df_malloc/df_free do not share one line.
  alignas(64) std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> peak_{0};
  alignas(64) std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
};

}  // namespace dfth
