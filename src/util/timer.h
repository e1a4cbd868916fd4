// Wall-clock timing helpers for the real engine, the replay session and
// microbenchmarks.
#pragma once

#include <chrono>
#include <cstdint>

namespace dfth {

class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_us() const { return elapsed_s() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic steady-clock nanosecond stamp. Unlike the engine clock
/// dfth::now_ns() (runtime/api.h), this is host time even under SimEngine.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace dfth
