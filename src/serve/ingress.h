// Bounded lock-free MPSC ingress ring for the serving front-end.
//
// Shape: Vyukov's bounded MPMC queue specialized to one consumer (the
// server's pump fiber). Producers are client fibers — possibly many, on
// either engine — so try_push must be multi-producer safe and *bounded*:
// when the ring is full it returns false immediately and the caller sheds
// or retries with backoff. Nothing ever blocks inside the ring, so it is
// safe to call from fibers on the SimEngine (where a spin would deadlock
// the single host CPU) and from concurrent workers on the RealEngine.
//
// Each cell carries a sequence number with the classic invariant:
//   seq == index            -> cell is free, a producer may claim it
//   seq == index + 1        -> cell is full, the consumer may take it
//   anything else           -> another producer/consumer owns the slot;
//                              for a bounded queue that means "full"/"empty"
// Producers claim a ticket with one fetch_add-free CAS loop; the consumer
// needs no CAS at all (single consumer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace dfth::serve {

template <typename T>
class IngressRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit IngressRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  IngressRing(const IngressRing&) = delete;
  IngressRing& operator=(const IngressRing&) = delete;

  /// Multi-producer push. Returns false when the ring is full — the
  /// bounded-ingress contract: the caller (not the queue) decides whether
  /// to drop, retry later, or count the rejection.
  bool try_push(T v) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& c = cells_[pos & mask_];
      const std::uint64_t seq = c.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          c.val = std::move(v);
          // Count before publishing: the consumer's fetch_sub for this cell
          // happens after its acquire of seq, so it can never run first and
          // drive depth_ below zero.
          depth_.fetch_add(1, std::memory_order_relaxed);
          c.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS refreshed pos; retry with the new tail.
      } else if (dif < 0) {
        return false;  // the cell one lap back is still occupied: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop. Returns false when empty.
  bool try_pop(T* out) {
    const std::uint64_t pos = head_;
    Cell& c = cells_[pos & mask_];
    const std::uint64_t seq = c.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1) < 0) {
      return false;  // producer has not published this cell yet: empty
    }
    *out = std::move(c.val);
    c.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_ = pos + 1;
    depth_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Approximate occupancy — the overload-shedding signal. Exact only in
  /// quiescence; racy reads are fine, the tiers have hysteresis.
  std::size_t size() const { return depth_.load(std::memory_order_relaxed); }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T val{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> tail_{0};  ///< producers' claim cursor
  std::uint64_t head_ = 0;              ///< consumer-private cursor
  std::atomic<std::int64_t> depth_{0};  ///< approximate size for shedding
};

}  // namespace dfth::serve
