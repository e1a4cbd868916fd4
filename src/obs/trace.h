// Event tracer — per-lane ring buffers of timestamped scheduler events.
//
// The paper's entire evaluation is observability (Figure 1 is a time series
// of live threads, Figure 6 an execution-time breakdown, Figure 9 memory
// over time), but aggregates alone cannot explain *why* a scheduler
// misbehaved. This layer records the raw events — fork, join, dispatch,
// preempt, quota exhaustion, dummy spawn, steal, stack fresh/reuse, large
// alloc/free — with one ring buffer per lane (virtual processor in
// SimEngine, kernel-thread worker in RealEngine, plus one "external" lane
// for bound threads), and a time-series sampler for live-thread count, heap
// and stack footprint, and ready-queue depth.
//
// Timestamps are virtual nanoseconds under SimEngine and steady-clock
// nanoseconds since run start under RealEngine, so the same exporters
// (obs/export.h) serve both engines.
//
// The session owns the run's counters and histograms (obs/counters.h), each
// from one source: an emitted event kind, an edge (ready, pick, heap, steal,
// dispatch gap) into the lane's counts beside its ring, the stack pool's
// own counts differenced over the run, or the run's RunStats.
//
// Cost: events come through obs/edges.h; with no Tracer installed an event
// is one relaxed load of tracer() and a branch. A ring push is one relaxed
// fetch_add plus a 24-byte store, no locks; rings never grow, and an
// overflowing event is dropped and *counted*. A count is one more relaxed
// fetch_add on the lane.
//
// Writer contract: each lane is written by the kernel thread that owns it
// (lock-free SPSC in the common case). The reservation index, counts and
// histogram buckets are atomic, so the shared "external" lane tolerates
// multiple writers (MPSC); rings are only read after the run quiesces
// (worker join provides the happens-before edge); counts may be read live.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/counters.h"
#include "runtime/run_stats.h"

namespace dfth::obs {

enum class EvKind : std::uint8_t {
  Fork,          ///< tid = parent, arg = child id
  Join,          ///< tid = joiner, arg = joined id
  Dispatch,      ///< tid runs on this lane; arg = dispatch count
  Preempt,       ///< runnable tid switched out; arg = PreemptReason
  QuotaExhaust,  ///< df_malloc drove tid's quota to zero; arg = bytes
  DummySpawn,    ///< tid = parent, arg = dummy child id
  Steal,         ///< tid stolen onto this lane; arg = victim proc/cluster
  Block,         ///< tid blocked (join or sync object)
  Wake,          ///< tid made runnable; arg = waker id
  Exit,          ///< tid exited
  StackFresh,    ///< fresh stack mapped for tid; arg = bytes
  StackReuse,    ///< pooled stack reused for tid; arg = bytes
  Alloc,         ///< df_malloc ≥ threshold by tid; arg = bytes
  Free,          ///< df_free ≥ threshold by tid; arg = bytes
  kCount,
};

const char* to_string(EvKind k);

enum PreemptReason : std::uint64_t {
  kPreemptYield = 1,
  kPreemptQuota = 2,
  kPreemptForkDive = 3,  ///< parent preempted so the child runs (AsyncDF/WS)
  kPreemptOom = 4,       ///< heap exhaustion treated as quota exhaustion
  kPreemptDeadline = 5,  ///< cancel-token deadline fired at this dispatch
};

struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint64_t tid = 0;
  std::uint64_t arg = 0;
  std::uint16_t lane = 0;
  EvKind kind = EvKind::Fork;
};

/// Fixed-capacity event ring. Keeps the *earliest* events (overflow drops
/// the new event and counts it): start-of-run behaviour is what the
/// dispatch-gap and Fig-1-shape analyses need, and keep-first makes the
/// slot write unconditionally race-free under concurrent reservation.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void push(const TraceEvent& ev);

  std::size_t size() const;
  std::size_t capacity() const { return buf_.size(); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Events in write order. Only valid once all writers have quiesced.
  std::vector<TraceEvent> drain() const;

 private:
  std::vector<TraceEvent> buf_;
  std::atomic<std::size_t> next_{0};  ///< reservation index (may exceed capacity)
  std::atomic<std::uint64_t> dropped_{0};
};

/// One point of the live-thread / footprint / ready-depth time series
/// (Figures 1 and 9 are exactly these curves).
struct Sample {
  std::uint64_t ts_ns = 0;
  std::int64_t live_threads = 0;
  std::int64_t heap_bytes = 0;
  std::int64_t stack_bytes = 0;
  std::int64_t ready = 0;
};

struct TraceConfig {
  std::size_t ring_capacity = 1 << 16;     ///< events per lane
  std::uint64_t sample_interval_ns = 0;    ///< 0 = engine-chosen default
  std::uint64_t alloc_event_min_bytes = 4096;  ///< Alloc/Free event threshold
};

/// A trace session. Caller-owned (RuntimeOptions::tracer points at one);
/// dfth::run installs it for the duration of the run and stamps events
/// through the engine's clock.
class Tracer {
 public:
  explicit Tracer(TraceConfig cfg = {});

  // -- engine-side lifecycle --------------------------------------------------
  /// Clears previous results and arms `lanes` rings with zeroed counts.
  /// `clock` supplies event timestamps (virtual ns in Sim, steady-clock ns
  /// since run start in Real).
  void begin_run(int lanes, std::function<std::uint64_t()> clock);
  /// Sums the lanes' counts and histograms, takes the stack pool's counts
  /// since begin_run() and `stats`' own (inline runs, OOM preempts, sync
  /// timeouts, faults), and drops the clock (whose captures may dangle once
  /// the engine is destroyed).
  void end_run(const RunStats& stats = {});

  void emit(int lane, EvKind kind, std::uint64_t tid, std::uint64_t arg);
  void emit_at(int lane, EvKind kind, std::uint64_t ts_ns, std::uint64_t tid,
               std::uint64_t arg);
  /// Counts `n` of `c` on `lane`; an emitted event counts its own kind.
  void add(int lane, Counter c, std::uint64_t n = 1) {
    if (lanes_.empty()) return;
    lanes_[clamp(lane)]->counts[static_cast<int>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Records `v` into `lane`'s histogram `h`.
  void record(int lane, Hist h, std::uint64_t v) {
    if (lanes_.empty()) return;
    lanes_[clamp(lane)]->hists[static_cast<int>(h)].record(v);
  }
  void add_sample(const Sample& s) { samples_.push_back(s); }

  std::uint64_t now() const { return clock_ ? clock_() : 0; }
  const TraceConfig& config() const { return cfg_; }

  /// Counter `c` summed over the lanes so far (stack counts: the pool's
  /// since begin_run()); RunStats-sourced counters read 0 until end_run().
  /// Safe while the run is live.
  std::uint64_t live_counter(Counter c) const;
  /// Histogram `h` merged over the lanes so far; safe while the run is live.
  HistSnapshot live_hist(Hist h) const;

  // -- results (valid after end_run) -----------------------------------------
  int lanes() const { return static_cast<int>(lanes_.size()); }
  /// One lane's events in write order (per-lane timestamps are monotone for
  /// single-writer lanes).
  std::vector<TraceEvent> lane_events(int lane) const;
  /// All lanes merged, stably sorted by timestamp.
  std::vector<TraceEvent> merged() const;
  std::size_t event_count() const;
  std::uint64_t dropped() const;
  const std::vector<Sample>& samples() const { return samples_; }
  /// Counter value at end_run().
  std::uint64_t counter(Counter c) const {
    return counter_snapshot_[static_cast<int>(c)];
  }
  /// Histogram at end_run() (p50/p99/p999 come from here).
  const HistSnapshot& hist(Hist h) const {
    return hist_snapshot_[static_cast<int>(h)];
  }

 private:
  /// One lane: its ring, and beside it the lane's counts and histograms.
  struct alignas(64) Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    TraceRing ring;
    std::atomic<std::uint64_t> counts[kNumCounters] = {};
    LogHistogram hists[kNumHists];
  };

  /// `lane` clamped into [0, lanes()); lanes_ must not be empty.
  std::size_t clamp(int lane) const {
    return std::min(static_cast<std::size_t>(lane < 0 ? 0 : lane),
                    lanes_.size() - 1);
  }

  TraceConfig cfg_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Sample> samples_;
  std::function<std::uint64_t()> clock_;
  std::uint64_t stacks_fresh0_ = 0, stacks_reused0_ = 0;  ///< pool at begin_run
  std::uint64_t counter_snapshot_[kNumCounters] = {};
  HistSnapshot hist_snapshot_[kNumHists] = {};
};

namespace detail {
/// Set by dfth::run (obs/edges.h) for the duration of one run.
inline std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace detail

/// The active session, or nullptr when none is installed.
inline Tracer* tracer() {
  return detail::g_tracer.load(std::memory_order_relaxed);
}

}  // namespace dfth::obs
