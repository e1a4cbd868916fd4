// Spin-then-park primitives for the real engine's scheduler lock and idle
// workers. Both spin for a bounded budget first — a scheduling transition
// holds the engine lock for well under a microsecond, and on a small host a
// futex sleep/wake round trip costs tens of microseconds — and only then
// sleep in the kernel on a futex word.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/spinlock.h"

namespace dfth {

namespace detail {
/// Sleeps while *word == expected, for at most timeout_ns (0 = no limit).
/// May return spuriously; callers re-check their condition.
void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::uint64_t timeout_ns);
/// Wakes one sleeper on word.
void futex_wake_one(std::atomic<std::uint32_t>* word);
}  // namespace detail

/// Mutex with a test-and-test-and-set spin before the futex path (Drepper's
/// three-state mutex: 0 free, 1 held, 2 held with possible sleepers). An
/// uncontended lock/unlock pair is two atomic RMWs; unlock makes a syscall
/// only when someone may be asleep.
class SpinFutexLock {
 public:
  /// Relaxed-load polls of the lock word before sleeping.
  static constexpr int kSpinBudget = 128;

  void lock() {
    std::uint32_t c = 0;
    if (word_.compare_exchange_strong(c, 1, std::memory_order_acquire)) return;
    for (int i = 0; i < kSpinBudget; ++i) {
      cpu_relax();
      c = word_.load(std::memory_order_relaxed);
      if (c == 0 &&
          word_.compare_exchange_weak(c, 1, std::memory_order_acquire)) {
        return;
      }
    }
    if (c != 2) c = word_.exchange(2, std::memory_order_acquire);
    while (c != 0) {
      detail::futex_wait(&word_, 2, 0);
      c = word_.exchange(2, std::memory_order_acquire);
    }
  }

  bool try_lock() {
    std::uint32_t c = 0;
    return word_.compare_exchange_strong(c, 1, std::memory_order_acquire);
  }

  void unlock() {
    if (word_.exchange(0, std::memory_order_release) == 2) {
      detail::futex_wake_one(&word_);
    }
  }

 private:
  std::atomic<std::uint32_t> word_{0};
};

/// One-permit parking spot for a single sleeper (an idle worker, or the host
/// thread waiting for a run to end). unpark() leaves a permit that the next
/// park() consumes, so a wake that races ahead of the sleep is never lost;
/// it makes a syscall only when the sleeper is actually asleep.
class Parker {
 public:
  /// How long park() spins on the permit before sleeping.
  static constexpr std::uint64_t kSpinNs = 20'000;

  /// Returns true when a permit was consumed, false when timeout_ns
  /// (0 = no limit) elapsed first.
  bool park(std::uint64_t timeout_ns = 0);

  void unpark() {
    if (state_.exchange(kNotified, std::memory_order_release) == kParked) {
      detail::futex_wake_one(&state_);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kParked = 1;
  static constexpr std::uint32_t kNotified = 2;

  std::atomic<std::uint32_t> state_{kEmpty};
};

}  // namespace dfth
