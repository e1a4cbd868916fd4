// dfth_perf harness plumbing: the run context, the unit runner that wraps
// dfth::run() on the real engine, in-memory spans, and the result sheet.
//
// Every workload measures *units* (one app run, one spawn tree, one ring
// round, one serving phase) under up to four variants: plain serial code
// outside run(), AsyncDF at p = 1, AsyncDF at p = nproc and WorkSteal at
// p = nproc. End-to-end numbers come from untraced units only; a --traced run
// alternates untraced and traced reps, so its per-layer numbers and the
// tracing overhead come from the same stretch of time.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "runtime/api.h"
#include "util/rng.h"

namespace dfth::perf {

// ---- run context ------------------------------------------------------------

struct Ctx {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool traced = false;
  bool smoke = false;  ///< tiny sizes, one rep (the ctest smoke run)
  int nproc = 1;       ///< cores in the affinity mask: p of the parallel runs
  std::string out_dir = ".";

  /// Whether the rep loop that started at `t0_ns` stops after rep `rep`:
  /// when the budget is spent, or for a smoke run after one rep (two when
  /// traced, so that one is).
  bool last_rep(std::uint64_t t0_ns, int rep) const;
};

/// Steady-clock nanoseconds.
inline std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Cores in this process's affinity mask.
int affinity_cpus();

/// Pins the calling thread to the k-th core (mod the count) of its affinity
/// mask and restores the mask when it goes out of scope. Code timed on one
/// thread samples one core, and on a shared host one core can run slower
/// than the others for minutes; rotating the core spreads such a reference
/// over every core, as the parallel variants are.
class CpuPin {
 public:
  explicit CpuPin(int k);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Peak resident set of the process so far, MiB (getrusage).
double rss_peak_mb();

/// CPU time the hypervisor has taken from this machine's CPUs since boot,
/// summed over them, seconds (the steal column of /proc/stat); 0 where it
/// cannot be read.
double host_steal_s();

/// Share of the machine's CPU time the hypervisor took over `wall_ns`, from
/// two host_steal_s() readings taken that far apart.
double steal_share(double steal0_s, double steal1_s, std::uint64_t wall_ns);

/// A sample during which the hypervisor took more than this share of the
/// CPUs measures the host, not the program: the end-to-end metrics leave it
/// out. On the host of the baseline the steal rate is about 0.5% when quiet
/// and 15-35% for stretches of seconds to minutes.
inline constexpr double kMaxSteal = 0.05;

// ---- statistics --------------------------------------------------------------

/// Quantile q in [0,1], linear interpolation between order statistics (the
/// same rule as Python's statistics.quantiles "inclusive"); NaN when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

/// Quantile of a log2-bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the bare bucket bound would read the same
/// power of two on every run).
double hist_quantile(const obs::HistSnapshot& h, double q);

// ---- spans ---------------------------------------------------------------------

/// One recorded interval. `parent` is a span id (index + 1, 0 = none); the
/// spans of one request share `req`.
struct Span {
  const char* name = nullptr;
  std::uint64_t t0 = 0, t1 = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::uint32_t lane = 0;  ///< carrier kernel thread, for the trace view
};

/// In-memory span store: a fixed array claimed by one fetch_add per span, so
/// recording never blocks a fiber. Spans past the capacity are counted and
/// dropped.
class Spans {
 public:
  static Spans& instance();

  void enable(std::size_t capacity) { spans_.resize(capacity); }
  /// Tracing is on for the current unit. Flipped by the main thread between
  /// units only.
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }

  /// Reserves an id for a span whose children are recorded before it ends;
  /// 0 when the store is full.
  std::uint64_t open();
  void close(std::uint64_t id, const char* name, std::uint64_t t0,
             std::uint64_t t1, std::uint64_t parent, std::uint64_t req = 0);
  void record(const char* name, std::uint64_t t0, std::uint64_t t1,
              std::uint64_t parent, std::uint64_t req = 0) {
    if (std::uint64_t id = open()) close(id, name, t0, t1, parent, req);
  }

  /// Parent of the timed calls made while the current unit runs.
  std::uint64_t unit() const { return unit_.load(std::memory_order_relaxed); }
  void set_unit(std::uint64_t id) { unit_.store(id, std::memory_order_relaxed); }

  std::size_t size() const;
  std::uint64_t dropped() const { return dropped_.load(); }
  const Span& at(std::size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> unit_{0};
};

/// Brackets a call the harness times, as a span named after the call under
/// the current unit:
///
///   const std::uint64_t s0 = span_begin();
///   Thread t = spawn([...] {...});
///   span_end("spawn", s0);
///
/// Spawns and joins are timed this way, not through timed(), so that
/// tools/dfth-check still sees the statements themselves: the spawned lambda
/// as a fiber entry, and the handle joined in the function that spawned it.
inline std::uint64_t span_begin() { return Spans::instance().on() ? clock_ns() : 0; }
inline void span_end(const char* name, std::uint64_t t0) {
  Spans& s = Spans::instance();
  if (t0 != 0) s.record(name, t0, clock_ns(), s.unit());
}

/// Calls f() between span_begin() and span_end(name).
template <typename F>
decltype(auto) timed(const char* name, F&& f) {
  const std::uint64_t t0 = span_begin();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    span_end(name, t0);
  } else {
    auto r = f();
    span_end(name, t0);
    return r;
  }
}

// ---- units ---------------------------------------------------------------------

enum class Variant : int { Serial = 0, P1, Pn, Ws, kCount };
inline constexpr int kNumVariants = static_cast<int>(Variant::kCount);
const char* to_string(Variant v);

/// One measured unit: its time and, for traced runtime variants, what the
/// engine, the counter registry and the profiler saw during it.
struct Unit {
  Variant variant = Variant::Serial;
  int item = 0;             ///< app index (apps workload), else 0
  bool traced = false;
  double ms = 0;            ///< the unit's own work, timed on the main fiber
  double run_ms = 0;        ///< the whole dfth::run() call
  double heap_mb = 0;       ///< tracked-heap high-water above what was live before
  double steal = 0;         ///< steal_share() over the unit (the run() call)
  RunStats stats;
  std::uint64_t counters[obs::kNumCounters] = {};
  obs::HistSnapshot gap_hist;  ///< lane idle gap before each dispatch
};

/// Measures `body` as one unit. Serial runs it on the calling thread; the
/// others wrap it in dfth::run() on the real engine and time it on the main
/// fiber. `tweak` adjusts the engine options (stack size, quota). Traced
/// units install a tracer (exact counters) and a work/span profiler, and
/// record "unit" and "run" spans.
Unit run_unit(const Ctx& ctx, Variant v, bool traced,
              const std::function<void()>& body,
              const std::function<void(RuntimeOptions&)>& tweak = {});

/// The rep loop of the batch workloads. Each rep measures, for every item,
/// every variant in `order` (rotated by rep and item, so no variant always
/// runs first) through `one(item, variant, traced)`, until the budget is
/// spent. In a --traced run reps alternate between untraced and traced, so
/// both interleave over the same stretch of time; traced reps skip the
/// serial and p = 1 variants, which no per-layer metric reads.
void rep_loop(const Ctx& ctx, int items, const std::vector<Variant>& order,
              const std::function<void(int, Variant, bool)>& one);

/// Runs `setup` five times (the last one's state stays in place) and
/// returns the median seconds of one set-up.
double timed_setup(const std::function<void()>& setup);

/// Overwrites an output buffer before a run that must rewrite all of it, so
/// an element the run skipped fails the comparison against serial. The value
/// is huge but finite: the app comparators take std::max of the differences,
/// which passes over a NaN.
template <typename T>
void poison(T* p, std::size_t n) {
  std::fill(p, p + n, T(std::numeric_limits<double>::max()));
}

/// Seeded Fisher-Yates shuffle. Workloads draw the *order* of data whose
/// content sets the amount of work from the seed, so that a run's cost does
/// not depend on the seed while its inputs still do.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

// ---- results ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string moves;  ///< per-layer: "<end-to-end metric> on <workload>"
};

struct Results {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> info;   ///< further rows of the report (not gated)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< operations that did not succeed (serve)
  std::uint64_t checks = 0;   ///< correctness checks that ran
  std::vector<std::string> errors;

  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit), {}});
  }
  void add_layer(std::string name, double value, std::string unit,
                 std::string moves = {}) {
    layer.push_back({std::move(name), value, std::move(unit), std::move(moves)});
  }
  void add_info(std::string name, double value, std::string unit) {
    info.push_back({std::move(name), value, std::move(unit), {}});
  }
  /// Counts one correctness check; records `why` when it failed.
  void check(bool ok, const std::string& why) {
    ++checks;
    if (!ok) errors.push_back(why);
  }
};

/// Which samples of one kind the end-to-end metrics keep, given the
/// steal_share() of each: every sample at or below kMaxSteal, and at least
/// the least-stolen quarter, so that a metric still rests on several samples
/// when most of the run was stolen from.
std::vector<bool> least_stolen(const std::vector<double>& steal);

/// least_stolen() over each (variant, item, traced) group of units.
std::vector<bool> unstolen(const std::vector<Unit>& units);

/// Unit times (ms) of one variant, untraced or traced, of one item (or all
/// items when item < 0).
std::vector<double> unit_ms(const std::vector<Unit>& units, Variant v,
                            bool traced = false, int item = -1);

/// The end-to-end metrics of a batch workload (apps, fork-join, sync) from
/// its untraced units over `items` items: per-item medians (and p90s) of the
/// p = nproc AsyncDF units summed (wall_ms, tail_ms, heap_peak_mb), and
/// geometric means over items of ratios of per-item medians (speedup,
/// ws_speedup, p1_overhead).
void add_batch_e2e(Results& res, const std::vector<Unit>& units, int items,
                   double setup_s);

/// Per-layer metrics every workload reports, from its traced units.
void add_layer_metrics(const Ctx& ctx, Results& res,
                       const std::vector<Unit>& units);

/// Quantile q of the durations of the spans named `name`, in ns divided by
/// `scale`; NaN when none were recorded.
double span_quantile(const char* name, double q, double scale);

/// Writes <out_dir>/<workload>.trace.json (Chrome trace of the first spans)
/// and <out_dir>/<workload>.layers.json (per-layer metrics with the
/// end-to-end metric each should move, and self times per span name).
void write_trace_files(const Ctx& ctx, const Results& res);

// ---- workloads -------------------------------------------------------------------

void run_apps(const Ctx& ctx, Results& res);
void run_forkjoin(const Ctx& ctx, Results& res);
void run_sync(const Ctx& ctx, Results& res);
void run_serve(const Ctx& ctx, Results& res);

}  // namespace dfth::perf
