// Counters registry — the always-cheap half of the observability layer.
//
// One process-global set of relaxed atomic counters, shared by both
// engines, all schedulers, the stack pool and the tracked heap. It is
// sharded: each kernel thread increments its own cache-line-aligned shard
// (assigned round robin on its first increment), so workers counting
// allocations and stack reuse do not bounce one line between cores;
// value() sums the shards. A trace session (obs/trace.h) resets the
// registry at begin_run() and snapshots it at end_run(), both with the
// workers quiesced, so the exported RunStats-superset JSON carries exact
// per-run operation counts even for events the ring buffer dropped or that
// fall under the alloc-event threshold.
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
  ReadyPushes,    ///< scheduler on_ready() calls (all policies)
  ReadyPops,      ///< successful scheduler pick_next() calls
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

namespace detail {
/// The calling kernel thread's counter shard, -1 until its first increment.
extern constinit thread_local int tl_counter_shard;
/// Assigns the calling thread its shard and returns it.
int assign_counter_shard();
}  // namespace detail

class CounterRegistry {
 public:
  /// Shards the kernel threads are spread over.
  static constexpr int kShards = 16;

  void inc(Counter c, std::uint64_t n = 1) {
    int i = detail::tl_counter_shard;
    if (i < 0) i = detail::assign_counter_shard();
    shards_[i].vals[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value(Counter c) const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.vals[static_cast<int>(c)].load(std::memory_order_relaxed);
    }
    return sum;
  }
  void reset() {
    for (Shard& s : shards_) {
      for (auto& v : s.vals) v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> vals[kNumCounters] = {};
  };
  Shard shards_[kShards];
};

namespace detail {
extern constinit CounterRegistry g_counters;
}  // namespace detail

/// The process-global registry.
inline CounterRegistry& counters() { return detail::g_counters; }

// ---- log-bucketed histograms ------------------------------------------------
//
// Counters answer "how many"; these answer "how long". One power-of-two
// bucket per bit width keeps recording to a single relaxed fetch_add (no
// locks, no allocation) at the cost of ≤2x bucket-boundary error on the
// reported percentiles — the right trade for tail latencies that range over
// six orders of magnitude. A trace session resets the registry at
// begin_run() and snapshots it at end_run(), exactly like the counters.

enum class Hist : int {
  DispatchGapNs = 0,  ///< lane idle time preceding each dispatch
  StealLatencyNs,     ///< ready→stolen wait for WS/DFDeques/clustered steals
  ReadyWaitNs,        ///< ready→dispatched wait at every successful pick
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
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
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

class HistogramRegistry {
 public:
  void record(Hist h, std::uint64_t v) { hists_[static_cast<int>(h)].record(v); }
  HistSnapshot snapshot(Hist h) const {
    return hists_[static_cast<int>(h)].snapshot();
  }
  void reset() {
    for (auto& h : hists_) h.reset();
  }

 private:
  LogHistogram hists_[kNumHists];
};

/// The process-global histogram registry.
HistogramRegistry& histograms();

}  // namespace dfth::obs

#define DFTH_COUNT(c) ::dfth::obs::counters().inc(c)
#define DFTH_COUNT_N(c, n) ::dfth::obs::counters().inc((c), (n))
#define DFTH_HIST(h, v) ::dfth::obs::histograms().record((h), (v))
// Ready→now wait recorder for scheduler pick sites. Guarded: RealEngine
// calls pick_next with now == uint64 max (no virtual clock), and a reused
// Tcb's ready_at may postdate a stale now — record only sane waits.
#define DFTH_HIST_WAIT(h, now_ns, ready_ns)                         \
  do {                                                              \
    const std::uint64_t dfth_hw_now_ = (now_ns);                    \
    const std::uint64_t dfth_hw_rdy_ = (ready_ns);                  \
    if (dfth_hw_now_ != ~std::uint64_t{0} &&                        \
        dfth_hw_now_ >= dfth_hw_rdy_) {                             \
      ::dfth::obs::histograms().record((h),                         \
                                       dfth_hw_now_ - dfth_hw_rdy_); \
    }                                                               \
  } while (0)
