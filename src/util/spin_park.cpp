#include "util/spin_park.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>

#include "util/timer.h"

namespace dfth {
namespace detail {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t),
              "futex words are plain 32-bit integers");

void futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                std::uint64_t timeout_ns) {
  timespec ts{};
  if (timeout_ns != 0) {
    ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  }
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word),
          FUTEX_WAIT_PRIVATE, expected, timeout_ns != 0 ? &ts : nullptr,
          nullptr, 0);
}

void futex_wake_one(std::atomic<std::uint32_t>* word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
}

}  // namespace detail

bool Parker::park(std::uint64_t timeout_ns) {
  const std::uint64_t start = steady_now_ns();
  // Spin phase: poll the permit, reading the clock every 64 polls.
  for (int i = 0;; ++i) {
    if (state_.load(std::memory_order_relaxed) == kNotified) break;
    if ((i & 63) == 63 && steady_now_ns() - start >= kSpinNs) break;
    cpu_relax();
  }
  std::uint32_t s = kEmpty;
  if (!state_.compare_exchange_strong(s, kParked, std::memory_order_acquire)) {
    // s == kNotified: take the permit without sleeping.
    state_.store(kEmpty, std::memory_order_relaxed);
    return true;
  }
  const std::uint64_t deadline = timeout_ns ? start + timeout_ns : 0;
  for (;;) {
    std::uint64_t left = 0;
    if (deadline != 0) {
      const std::uint64_t now = steady_now_ns();
      if (now >= deadline) {
        s = kParked;
        if (state_.compare_exchange_strong(s, kEmpty,
                                           std::memory_order_acquire)) {
          return false;
        }
        // An unpark landed just now: consume it instead of timing out.
        state_.store(kEmpty, std::memory_order_relaxed);
        return true;
      }
      left = deadline - now;
    }
    detail::futex_wait(&state_, kParked, left);
    if (state_.load(std::memory_order_acquire) == kNotified) {
      state_.store(kEmpty, std::memory_order_relaxed);
      return true;
    }
  }
}

}  // namespace dfth
