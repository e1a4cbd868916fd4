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
// Cost discipline:
//  * compile-time: every hook goes through DFTH_TRACE_EMIT / DFTH_COUNT,
//    which expand to ((void)0) when the build does not set -DDFTH_TRACE
//    (tests/obs verify the expansion is literally empty);
//  * run-time: with tracing compiled in but no Tracer installed, an event
//    hook is one relaxed pointer load and a branch; a counter hook still
//    counts (one relaxed fetch_add on the thread's shard, obs/counters.h);
//  * recording: a ring push is one relaxed fetch_add plus a 24-byte store —
//    no locks. Rings never grow; on overflow new events are dropped and the
//    drop is *counted*, never silent.
//
// Writer contract: each lane is written by the kernel thread that owns it
// (lock-free SPSC in the common case). The reservation index is atomic, so
// the shared "external" lane tolerates multiple writers (MPSC); rings are
// only read after the run quiesces (worker join provides the
// happens-before edge).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/counters.h"

namespace dfth::obs {

#if DFTH_TRACE
inline constexpr bool kTraceEnabled = true;
#else
inline constexpr bool kTraceEnabled = false;
#endif

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
/// the engine installs it for the duration of run() and stamps events
/// through the engine-supplied clock.
class Tracer {
 public:
  explicit Tracer(TraceConfig cfg = {});

  // -- engine-side lifecycle --------------------------------------------------
  /// Clears previous results, resets the global counter registry and arms
  /// `lanes` rings. `clock` supplies event timestamps (virtual ns in Sim,
  /// steady-clock ns since run start in Real).
  void begin_run(int lanes, std::function<std::uint64_t()> clock);
  /// Snapshots the counter registry and drops the clock (whose captures may
  /// dangle once the engine is destroyed).
  void end_run();

  void emit(int lane, EvKind kind, std::uint64_t tid, std::uint64_t arg);
  void emit_at(int lane, EvKind kind, std::uint64_t ts_ns, std::uint64_t tid,
               std::uint64_t arg);
  void add_sample(const Sample& s) { samples_.push_back(s); }

  std::uint64_t now() const { return clock_ ? clock_() : 0; }
  const TraceConfig& config() const { return cfg_; }

  // -- results (valid after end_run) -----------------------------------------
  int lanes() const { return static_cast<int>(rings_.size()); }
  /// One lane's events in write order (per-lane timestamps are monotone for
  /// single-writer lanes).
  std::vector<TraceEvent> lane_events(int lane) const;
  /// All lanes merged, stably sorted by timestamp.
  std::vector<TraceEvent> merged() const;
  std::size_t event_count() const;
  std::uint64_t dropped() const;
  const std::vector<Sample>& samples() const { return samples_; }
  /// Counter value snapshotted at end_run().
  std::uint64_t counter(Counter c) const {
    return counter_snapshot_[static_cast<int>(c)];
  }
  /// Histogram snapshotted at end_run() (p50/p99/p999 come from here).
  const HistSnapshot& hist(Hist h) const {
    return hist_snapshot_[static_cast<int>(h)];
  }

 private:
  TraceConfig cfg_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<Sample> samples_;
  std::function<std::uint64_t()> clock_;
  std::uint64_t counter_snapshot_[kNumCounters] = {};
  HistSnapshot hist_snapshot_[kNumHists] = {};
};

/// The active trace session, or nullptr when none is installed. Engines
/// install opts.tracer at run() entry and clear it before returning.
Tracer* tracer();

namespace detail {
void set_tracer(Tracer* t);
}

}  // namespace dfth::obs

// Hook macros. OFF builds must expand to exactly ((void)0) — tests/obs
// stringifies the expansion to prove no tracer symbol survives.
#if DFTH_TRACE
#define DFTH_TRACE_EMIT(lane, kind, tid, arg)                      \
  do {                                                             \
    if (::dfth::obs::Tracer* dfth_tr_ = ::dfth::obs::tracer()) {   \
      dfth_tr_->emit((lane), (kind), (tid), (arg));                \
    }                                                              \
  } while (0)
#define DFTH_TRACE_EMIT_AT(lane, kind, ts, tid, arg)               \
  do {                                                             \
    if (::dfth::obs::Tracer* dfth_tr_ = ::dfth::obs::tracer()) {   \
      dfth_tr_->emit_at((lane), (kind), (ts), (tid), (arg));       \
    }                                                              \
  } while (0)
#define DFTH_TRACE_ALLOC_EVENT(lane, kind, tid, bytes)             \
  do {                                                             \
    if (::dfth::obs::Tracer* dfth_tr_ = ::dfth::obs::tracer()) {   \
      if (static_cast<std::uint64_t>(bytes) >=                     \
          dfth_tr_->config().alloc_event_min_bytes) {              \
        dfth_tr_->emit((lane), (kind), (tid), (bytes));            \
      }                                                            \
    }                                                              \
  } while (0)
#else
#define DFTH_TRACE_EMIT(lane, kind, tid, arg) ((void)0)
#define DFTH_TRACE_EMIT_AT(lane, kind, ts, tid, arg) ((void)0)
#define DFTH_TRACE_ALLOC_EVENT(lane, kind, tid, bytes) ((void)0)
#endif
