// Counter and histogram kinds — the "how many" and "how long" half of the
// observability layer. The values belong to a trace session (obs/trace.h),
// which takes each counter from its one source; with no session installed
// nothing is counted here, and every owner (RunStats, StackPool,
// TrackedHeap, the fault injector, the policies) keeps its exact count.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace dfth::obs {

enum class Counter : int {
  Forks = 0,
  Joins,
  Dispatches,
  Preempts,       ///< yield / quota / fork-dive switch-outs of runnable threads
  QuotaExhausts,  ///< df_malloc drove a thread's memory quota to zero
  DummySpawns,    ///< δ no-op threads forked before large allocations
  Steals,         ///< WS/DFDeques steals + clustered migrations
  Blocks,
  Wakes,
  Exits,
  ReadyPushes,    ///< threads made ready (Engine::ready, every policy)
  ReadyPops,      ///< successful picks and steals
  StacksFresh,
  StacksReused,
  Allocs,
  Frees,
  AllocBytes,
  FreeBytes,
  OomPreempts,      ///< heap exhaustion handled as an AsyncDF-style preempt
  InlineRuns,       ///< children run inline on the parent's stack (degraded spawn)
  SyncTimeouts,     ///< timed waits that expired before a waker claimed them
  FaultsInjected,   ///< resil::FaultInjector failures injected (fault_plan)
  FaultsRecovered,  ///< injected failures absorbed by a degradation path
  kCount,
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

const char* to_string(Counter c);

// ---- log-bucketed histograms ------------------------------------------------
//
// Counters answer "how many"; these answer "how long". One power-of-two
// bucket per bit width keeps recording to a single relaxed fetch_add (no
// locks, no allocation) at the cost of ≤2x bucket-boundary error on the
// reported percentiles — the right trade for tail latencies that range over
// six orders of magnitude. A trace session keeps one histogram of each kind
// per lane and merges them at end_run().

enum class Hist : int {
  DispatchGapNs = 0,  ///< lane idle time preceding each dispatch
  StealLatencyNs,     ///< ready→stolen wait for WS/DFDeques/clustered steals
  ReadyWaitNs,        ///< ready→picked wait at every successful pick
  // The two waits need a pick-time clock: SimEngine's virtual clock. The
  // real engine picks with none (now = UINT64_MAX), so on Real both stay
  // empty.
  kCount,
};

inline constexpr int kNumHists = static_cast<int>(Hist::kCount);

const char* to_string(Hist h);

/// Quiesced copy of one histogram; also the view the exporters and the
/// watchdog flight recorder consume.
struct HistSnapshot {
  std::uint64_t buckets[64] = {};  ///< bucket b counts values of bit width b

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::uint64_t b : buckets) n += b;
    return n;
  }
  /// Upper bound of bucket b: largest value with that bit width.
  static std::uint64_t bucket_bound(int b) {
    return b >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
  }
  /// Value at quantile q in [0,1], as the containing bucket's upper bound
  /// (so p50/p99/p999 are conservative to within the 2x bucket width).
  std::uint64_t percentile(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (rank >= total) rank = total - 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < 64; ++b) {
      seen += buckets[b];
      if (seen > rank) return bucket_bound(b);
    }
    return bucket_bound(63);
  }
  std::uint64_t max_bound() const {
    for (int b = 63; b >= 0; --b) {
      if (buckets[b]) return bucket_bound(b);
    }
    return 0;
  }
};

class LogHistogram {
 public:
  void record(std::uint64_t v) {
    const int b = std::bit_width(v) > 63 ? 63 : std::bit_width(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
  }
  HistSnapshot snapshot() const {
    HistSnapshot s;
    for (int b = 0; b < 64; ++b) {
      s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  std::atomic<std::uint64_t> buckets_[64] = {};
};

}  // namespace dfth::obs
