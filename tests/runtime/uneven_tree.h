// An uneven fork-join tree shared by the real-engine stress test and the
// merged-section replay test: split points at roughly a third, so siblings
// finish at different times and joins block; every internal node holds a
// buffer while its children run, and every 16th leaf allocates `big` bytes,
// which forks dummy threads and preempts on quota when `big` exceeds K.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/api.h"

namespace dfth::test {

/// Runs the tree over leaves [lo, hi) and returns the sum of the leaf
/// indices. `spawned` counts the threads the tree spawned itself (dummy
/// threads come on top).
inline std::uint64_t uneven_tree(std::size_t lo, std::size_t hi, std::size_t big,
                                 std::atomic<std::uint64_t>* spawned) {
  if (hi - lo == 1) {
    const std::size_t bytes = lo % 16 == 0 ? big : 64 + lo % 512;
    auto* p = static_cast<volatile std::uint8_t*>(df_malloc(bytes));
    std::uint64_t x = lo + 1;
    for (std::size_t k = 0; k < 64 + lo % 256; ++k) x = x * 6364136223846793005ull + 1;
    p[0] = static_cast<std::uint8_t>(x);
    df_free(const_cast<std::uint8_t*>(p));
    return lo;
  }
  const std::size_t mid = lo + (hi - lo + 2) / 3;
  void* buf = df_malloc(16 * (hi - lo));
  spawned->fetch_add(2, std::memory_order_relaxed);
  Thread a = spawn([=] {
    return reinterpret_cast<void*>(uneven_tree(lo, mid, big, spawned));
  });
  Thread b = spawn([=] {
    return reinterpret_cast<void*>(uneven_tree(mid, hi, big, spawned));
  });
  const auto sum = reinterpret_cast<std::uintptr_t>(join(a)) +
                   reinterpret_cast<std::uintptr_t>(join(b));
  df_free(buf);
  return sum;
}

}  // namespace dfth::test
