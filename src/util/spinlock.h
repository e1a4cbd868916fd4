// Test-and-test-and-set spinlock used to guard short critical sections in
// synchronization primitives. In the simulation engine (single OS thread)
// it is never contended; in the real engine critical sections are a handful
// of pointer writes, so spinning beats a futex round trip.
#pragma once

#include <atomic>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dfth {

inline void cpu_relax() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

class SpinLock {
 public:
  void lock() {
    while (true) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      while (locked_.load(std::memory_order_relaxed)) cpu_relax();
    }
  }

  bool try_lock() { return !locked_.exchange(true, std::memory_order_acquire); }

  void unlock() { locked_.store(false, std::memory_order_release); }

  /// Diagnostics only: true while some thread holds the lock. Engines assert
  /// this on block_current's guard (sync protocol step 3, runtime/sync.h).
  bool is_locked() const { return locked_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace dfth
