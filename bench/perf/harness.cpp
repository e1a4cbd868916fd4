#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <tuple>

#include "obs/profile.h"
#include "obs/trace.h"
#include "space/tracked_heap.h"

namespace dfth::perf {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint32_t lane_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

bool Ctx::last_rep(std::uint64_t t0_ns, int rep) const {
  if (smoke) return rep >= (traced ? 1 : 0);
  return static_cast<double>(clock_ns() - t0_ns) >= seconds * 1e9;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

CpuPin::CpuPin(int k) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  int nth = k % std::max(1, CPU_COUNT(&saved_));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &saved_) || nth-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  // cpu  user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                              &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  const long hz = sysconf(_SC_CLK_TCK);
  return got == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0;
}

double steal_share(double steal0_s, double steal1_s, std::uint64_t wall_ns) {
  static const double cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  if (wall_ns == 0) return 0;
  return (steal1_s - steal0_s) / (static_cast<double>(wall_ns) / 1e9 * cpus);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double hist_quantile(const obs::HistSnapshot& h, double q) {
  const std::uint64_t total = h.count();
  if (total == 0) return kNaN;
  const double rank = q * static_cast<double>(total - 1);
  std::uint64_t seen = 0;
  for (int b = 0; b < 64; ++b) {
    if (h.buckets[b] == 0) continue;
    if (static_cast<double>(seen + h.buckets[b]) > rank) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
      const double hi = static_cast<double>(obs::HistSnapshot::bucket_bound(b));
      const double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(h.buckets[b]);
      return lo + (hi - lo) * std::min(1.0, frac);
    }
    seen += h.buckets[b];
  }
  return static_cast<double>(h.max_bound());
}

// ---- spans ---------------------------------------------------------------------

Spans& Spans::instance() {
  static Spans s;
  return s;
}

std::uint64_t Spans::open() {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return i + 1;
}

void Spans::close(std::uint64_t id, const char* name, std::uint64_t t0,
                  std::uint64_t t1, std::uint64_t parent, std::uint64_t req) {
  if (id == 0) return;
  spans_[id - 1] = Span{name, t0, t1, parent, req, lane_id()};
}

std::size_t Spans::size() const {
  return std::min(next_.load(), spans_.size());
}

double span_quantile(const char* name, double q, double scale) {
  const Spans& s = Spans::instance();
  std::vector<double> d;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Span& sp = s.at(i);
    if (sp.name != nullptr && std::strcmp(sp.name, name) == 0) {
      d.push_back(static_cast<double>(sp.t1 - sp.t0) / scale);
    }
  }
  return quantile(std::move(d), q);
}

// ---- units ---------------------------------------------------------------------

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Serial: return "serial";
    case Variant::P1: return "adf_p1";
    case Variant::Pn: return "adf_pn";
    case Variant::Ws: return "ws_pn";
    case Variant::kCount: break;
  }
  return "?";
}

Unit run_unit(const Ctx& ctx, Variant v, bool traced,
              const std::function<void()>& body,
              const std::function<void(RuntimeOptions&)>& tweak) {
  Unit u;
  u.variant = v;
  u.traced = traced;
  Spans& sp = Spans::instance();
  const std::uint64_t unit_id = traced ? sp.open() : 0;
  sp.set_unit(unit_id);
  sp.set_on(traced);

  if (v == Variant::Serial) {
    static int serial_units = 0;  // each serial unit runs on the next core
    CpuPin pin(serial_units++);
    const double steal0 = host_steal_s();
    const std::uint64_t t0 = clock_ns();
    body();
    const std::uint64_t t1 = clock_ns();
    u.steal = steal_share(steal0, host_steal_s(), t1 - t0);
    u.ms = u.run_ms = static_cast<double>(t1 - t0) / 1e6;
    sp.close(unit_id, "unit", t0, t1, 0);
  } else {
    RuntimeOptions o;
    o.engine = EngineKind::Real;
    o.sched = v == Variant::Ws ? SchedKind::WorkSteal : SchedKind::AsyncDf;
    o.nprocs = v == Variant::P1 ? 1 : ctx.nproc;
    o.seed = ctx.seed;
    if (tweak) tweak(o);
    obs::TraceConfig tcfg;
    tcfg.ring_capacity = 1 << 12;  // the counters stay exact when rings overflow
    obs::Tracer tracer(tcfg);
    obs::Profiler prof;
    if (traced) {
      o.tracer = &tracer;
      o.profiler = &prof;
    }
    const std::uint64_t run_id = traced ? sp.open() : 0;
    const std::int64_t live0 = TrackedHeap::instance().live_bytes();
    std::uint64_t t0 = 0, t1 = 0;
    const double steal0 = host_steal_s();
    const std::uint64_t r0 = clock_ns();
    u.stats = run(o, [&] {
      t0 = clock_ns();
      body();
      t1 = clock_ns();
    });
    const std::uint64_t r1 = clock_ns();
    u.steal = steal_share(steal0, host_steal_s(), r1 - r0);
    u.ms = static_cast<double>(t1 - t0) / 1e6;
    u.run_ms = static_cast<double>(r1 - r0) / 1e6;
    u.heap_mb = static_cast<double>(u.stats.heap_peak - live0) / kMiB;
    sp.close(run_id, "run", r0, r1, 0);
    sp.close(unit_id, "unit", t0, t1, run_id);
    if (traced) {
      for (int c = 0; c < obs::kNumCounters; ++c) {
        u.counters[c] = tracer.counter(static_cast<obs::Counter>(c));
      }
      u.gap_hist = tracer.hist(obs::Hist::DispatchGapNs);
    }
  }
  sp.set_on(false);
  sp.set_unit(0);
  return u;
}

void rep_loop(const Ctx& ctx, int items, const std::vector<Variant>& order,
              const std::function<void(int, Variant, bool)>& one) {
  const std::uint64_t t0 = clock_ns();
  const std::size_t n = order.size();
  for (int rep = 0;; ++rep) {
    const bool traced = ctx.traced && rep % 2 == 1;
    for (int it = 0; it < items; ++it) {
      for (std::size_t k = 0; k < n; ++k) {
        const Variant v = order[(k + static_cast<std::size_t>(rep + it)) % n];
        if (traced && (v == Variant::Serial || v == Variant::P1)) continue;
        one(it, v, traced);
      }
    }
    if (ctx.last_rep(t0, rep)) break;
  }
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = clock_ns();
    setup();
    s.push_back(static_cast<double>(clock_ns() - t0) / 1e9);
  }
  return median(std::move(s));
}

std::vector<bool> least_stolen(const std::vector<double>& steal) {
  std::vector<bool> keep(steal.size(), true);
  if (steal.empty()) return keep;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double cut = std::max(kMaxSteal, sorted[(steal.size() + 3) / 4 - 1]);
  for (std::size_t i = 0; i < steal.size(); ++i) keep[i] = steal[i] <= cut;
  return keep;
}

std::vector<bool> unstolen(const std::vector<Unit>& units) {
  std::map<std::tuple<Variant, int, bool>, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < units.size(); ++i) {
    groups[{units[i].variant, units[i].item, units[i].traced}].push_back(i);
  }
  std::vector<bool> keep(units.size());
  for (const auto& [key, idx] : groups) {
    std::vector<double> steal;
    for (std::size_t i : idx) steal.push_back(units[i].steal);
    const std::vector<bool> k = least_stolen(steal);
    for (std::size_t j = 0; j < idx.size(); ++j) keep[idx[j]] = k[j];
  }
  return keep;
}

std::vector<double> unit_ms(const std::vector<Unit>& units, Variant v,
                            bool traced, int item) {
  std::vector<double> out;
  for (const Unit& u : units) {
    if (u.variant == v && u.traced == traced && (item < 0 || u.item == item)) {
      out.push_back(u.ms);
    }
  }
  return out;
}

namespace {

/// Per-item median of f(unit) over the matching units, summed over items.
template <typename F>
double sum_of_medians(const std::vector<Unit>& units, int items, Variant v,
                      bool traced, F f) {
  double total = 0;
  for (int it = 0; it < items; ++it) {
    std::vector<double> xs;
    for (const Unit& u : units) {
      if (u.variant == v && u.traced == traced && u.item == it) {
        xs.push_back(static_cast<double>(f(u)));
      }
    }
    total += median(std::move(xs));
  }
  return total;
}

}  // namespace

void add_batch_e2e(Results& res, const std::vector<Unit>& all, int items,
                   double setup_s) {
  const std::vector<bool> keep = unstolen(all);
  std::vector<Unit> units;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (keep[i]) units.push_back(all[i]);
  }
  double wall = 0, tail = 0;
  std::vector<double> speedup, ws_speedup, p1_over;
  for (int it = 0; it < items; ++it) {
    const double ser = median(unit_ms(units, Variant::Serial, false, it));
    const double pn = median(unit_ms(units, Variant::Pn, false, it));
    wall += pn;
    tail += quantile(unit_ms(units, Variant::Pn, false, it), 0.9);
    speedup.push_back(ser / pn);
    ws_speedup.push_back(ser / median(unit_ms(units, Variant::Ws, false, it)));
    p1_over.push_back(median(unit_ms(units, Variant::P1, false, it)) / ser);
  }
  res.add_e2e("setup_s", setup_s, "s");
  res.add_e2e("wall_ms", wall, "ms");
  res.add_e2e("tail_ms", tail, "ms");
  res.add_e2e("speedup", geomean(speedup), "x");
  res.add_e2e("ws_speedup", geomean(ws_speedup), "x");
  res.add_e2e("p1_overhead", geomean(p1_over), "x");
  res.add_e2e("heap_peak_mb",
              sum_of_medians(units, items, Variant::Pn, false,
                             [](const Unit& u) { return u.heap_mb; }),
              "MiB");
  res.add_e2e("rss_peak_mb", rss_peak_mb(), "MiB");
  res.add_info("stolen_units", static_cast<double>(all.size() - units.size()), "count");
}

void add_layer_metrics(const Ctx& ctx, Results& res,
                       const std::vector<Unit>& units) {
  int items = 0;
  for (const Unit& u : units) items = std::max(items, u.item + 1);
  auto count = [&](Variant v, obs::Counter c) {
    return sum_of_medians(units, items, v, true, [c](const Unit& u) {
      return u.counters[static_cast<int>(c)];
    });
  };
  const char* thr = "wall_ms, speedup, ws_speedup";
  res.add_layer("core.dispatches", count(Variant::Pn, obs::Counter::Dispatches),
                "count", thr);
  res.add_layer("core.ready_pushes", count(Variant::Pn, obs::Counter::ReadyPushes),
                "count", thr);
  res.add_layer("core.steals",
                sum_of_medians(units, items, Variant::Ws, true,
                               [](const Unit& u) { return u.stats.steals; }),
                "count", "ws_speedup");
  res.add_layer("core.quota_preempts",
                count(Variant::Pn, obs::Counter::QuotaExhausts), "count",
                "heap_peak_mb, wall_ms");
  res.add_layer("core.dummy_threads",
                sum_of_medians(units, items, Variant::Pn, true,
                               [](const Unit& u) { return u.stats.dummy_threads; }),
                "count", "heap_peak_mb");

  obs::HistSnapshot gaps;
  for (const Unit& u : units) {
    if (u.traced && u.variant == Variant::Pn) {
      for (int b = 0; b < 64; ++b) gaps.buckets[b] += u.gap_hist.buckets[b];
    }
  }
  res.add_layer("core.dispatch_gap_p50_us", hist_quantile(gaps, 0.5) / 1e3, "us", thr);
  res.add_layer("core.dispatch_gap_p99_us", hist_quantile(gaps, 0.99) / 1e3, "us", thr);

  res.add_layer("runtime.forks", count(Variant::Pn, obs::Counter::Forks), "count",
                "wall_ms");
  res.add_layer("runtime.blocks", count(Variant::Pn, obs::Counter::Blocks), "count",
                "wall_ms");
  res.add_layer("runtime.wakes", count(Variant::Pn, obs::Counter::Wakes), "count",
                "wall_ms");
  res.add_layer("runtime.spawn_ns.p50", span_quantile("spawn", 0.5, 1), "ns", "wall_ms");
  res.add_layer("runtime.spawn_ns.p99", span_quantile("spawn", 0.99, 1), "ns", "wall_ms");
  res.add_layer("runtime.join_ns.p50", span_quantile("join", 0.5, 1), "ns", "wall_ms");
  res.add_layer("runtime.join_ns.p99", span_quantile("join", 0.99, 1), "ns", "wall_ms");
  res.add_layer("runtime.run_startup_us",
                sum_of_medians(units, items, Variant::Pn, false,
                               [](const Unit& u) { return u.run_ms - u.ms; }) *
                    1e3,
                "us", "wall_ms");

  // Profiler fractions and the Brent bracket, over the traced p = nproc
  // AsyncDF units: how much of the lanes' time went to scheduling or idling,
  // and whether measured T_p fell inside [lo(p), hi(p)].
  std::vector<double> over, idle, par, hi_ratio;
  int in_bracket = 0, profiled = 0;
  for (const Unit& u : units) {
    if (!u.traced || u.variant != Variant::Pn || !u.stats.profile.enabled) continue;
    const ProfileStats& ps = u.stats.profile;
    const double lanes_ns = ctx.nproc * u.stats.elapsed_us * 1e3;
    const double busy = static_cast<double>(ps.work_ns + ps.overhead_ns);
    over.push_back(static_cast<double>(ps.overhead_ns) / lanes_ns);
    idle.push_back(std::max(0.0, 1.0 - busy / lanes_ns));
    par.push_back(ps.parallelism());
    const double tp = u.stats.elapsed_us * 1e3;
    const double lo = ps.predict_lo_ns(ctx.nproc), hi = ps.predict_hi_ns(ctx.nproc);
    hi_ratio.push_back(tp / hi);
    ++profiled;
    if (tp >= lo && tp <= hi) ++in_bracket;
  }
  res.add_layer("runtime.overhead_frac", median(over), "ratio", "speedup");
  res.add_layer("runtime.idle_frac", median(idle), "ratio", "speedup");
  res.add_layer("runtime.parallelism", median(par), "ratio", "speedup");
  res.add_layer("runtime.brent_in_bracket",
                profiled ? static_cast<double>(in_bracket) / profiled : kNaN,
                "ratio", "speedup");
  res.add_layer("runtime.brent_hi_ratio", median(hi_ratio), "ratio", "speedup");

  res.add_layer("space.allocs", count(Variant::Pn, obs::Counter::Allocs), "count",
                "wall_ms");
  const double fresh = count(Variant::Pn, obs::Counter::StacksFresh);
  const double reused = count(Variant::Pn, obs::Counter::StacksReused);
  res.add_layer("space.stacks_fresh", fresh, "count", "wall_ms, rss_peak_mb");
  res.add_layer("space.stack_reuse_ratio",
                fresh + reused > 0 ? reused / (fresh + reused) : kNaN, "ratio",
                "wall_ms, rss_peak_mb");
  res.add_layer("space.stack_peak_mb",
                sum_of_medians(units, items, Variant::Pn, true,
                               [](const Unit& u) { return u.stats.stack_peak; }) /
                    kMiB,
                "MiB", "rss_peak_mb");

  const double traced_ms = sum_of_medians(units, items, Variant::Pn, true,
                                          [](const Unit& u) { return u.ms; });
  const double plain_ms = sum_of_medians(units, items, Variant::Pn, false,
                                         [](const Unit& u) { return u.ms; });
  res.add_layer("obs.trace_overhead", traced_ms / plain_ms, "ratio",
                "(traced / untraced wall_ms)");
  res.add_layer("obs.spans", static_cast<double>(Spans::instance().size()),
                "count");
}

// ---- trace files -------------------------------------------------------------------

namespace {

void put_num(std::FILE* f, double v) {
  if (std::isfinite(v)) {
    std::fprintf(f, "%.17g", v);
  } else {
    std::fputs("null", f);
  }
}

struct SelfTimes {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Per span name: count, total and self time, where a span's self time is
/// its duration minus the union of its children's intervals within it.
std::map<std::string, SelfTimes> self_times() {
  const Spans& s = Spans::instance();
  const std::size_t n = s.size();
  std::vector<std::size_t> kids;
  for (std::size_t i = 0; i < n; ++i) {
    if (s.at(i).name != nullptr && s.at(i).parent != 0) kids.push_back(i);
  }
  std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = s.at(a);
    const Span& y = s.at(b);
    return x.parent != y.parent ? x.parent < y.parent : x.t0 < y.t0;
  });
  std::vector<double> covered(n, 0.0);
  for (std::size_t k = 0; k < kids.size();) {
    const std::uint64_t pid = s.at(kids[k]).parent;
    if (pid == 0 || pid > n) {
      ++k;
      continue;
    }
    const Span& par = s.at(pid - 1);
    std::uint64_t cur_lo = 0, cur_hi = 0;
    double sum = 0;
    for (; k < kids.size() && s.at(kids[k]).parent == pid; ++k) {
      const std::uint64_t lo = std::max(s.at(kids[k]).t0, par.t0);
      const std::uint64_t hi = std::min(s.at(kids[k]).t1, par.t1);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        sum += static_cast<double>(cur_hi - cur_lo);
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    sum += static_cast<double>(cur_hi - cur_lo);
    covered[pid - 1] = sum;
  }
  std::map<std::string, SelfTimes> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& sp = s.at(i);
    if (sp.name == nullptr) continue;
    SelfTimes& st = out[sp.name];
    const double d = static_cast<double>(sp.t1 - sp.t0);
    ++st.count;
    st.total_ns += d;
    st.self_ns += std::max(0.0, d - covered[i]);
  }
  return out;
}

}  // namespace

void write_trace_files(const Ctx& ctx, const Results& res) {
  const Spans& s = Spans::instance();
  const std::string trace_path = ctx.out_dir + "/" + ctx.workload + ".trace.json";
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    constexpr std::size_t kMaxEvents = 100000;
    std::uint64_t base = ~std::uint64_t{0};
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.at(i).name != nullptr) base = std::min(base, s.at(i).t0);
    }
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", f);
    std::size_t written = 0;
    for (std::size_t i = 0; i < s.size() && written < kMaxEvents; ++i) {
      const Span& sp = s.at(i);
      if (sp.name == nullptr) continue;
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %llu, \"req\": %llu}}",
                   written ? "," : "", sp.name, sp.lane,
                   static_cast<double>(sp.t0 - base) / 1e3,
                   static_cast<double>(sp.t1 - sp.t0) / 1e3, i + 1,
                   static_cast<unsigned long long>(sp.parent),
                   static_cast<unsigned long long>(sp.req));
      ++written;
    }
    std::fprintf(f, "\n], \"otherData\": {\"spans\": %zu, \"written\": %zu, "
                    "\"dropped\": %llu}}\n",
                 s.size(), written,
                 static_cast<unsigned long long>(s.dropped()));
    std::fclose(f);
  } else {
    std::fprintf(stderr, "dfth_perf: cannot write %s\n", trace_path.c_str());
  }

  const std::string layer_path = ctx.out_dir + "/" + ctx.workload + ".layers.json";
  std::FILE* f = std::fopen(layer_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dfth_perf: cannot write %s\n", layer_path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"host_cpus\": %d,\n"
                  " \"metrics\": [",
               ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
               ctx.nproc);
  for (std::size_t i = 0; i < res.layer.size(); ++i) {
    const Metric& m = res.layer[i];
    std::fprintf(f, "%s\n  {\"name\": \"%s\", \"value\": ", i ? "," : "",
                 m.name.c_str());
    put_num(f, m.value);
    const std::string moves = m.moves.empty() ? "" : m.moves + " on " + ctx.workload;
    std::fprintf(f, ", \"unit\": \"%s\", \"moves\": \"%s\"}", m.unit.c_str(),
                 moves.c_str());
  }
  std::fputs("\n ],\n \"spans\": {", f);
  bool first = true;
  for (const auto& [name, st] : self_times()) {
    std::fprintf(f, "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": ", first ? "" : ",",
                 name.c_str(), static_cast<unsigned long long>(st.count));
    put_num(f, st.total_ns / 1e6);
    std::fputs(", \"self_ms\": ", f);
    put_num(f, st.self_ns / 1e6);
    std::fputs(", \"p50_us\": ", f);
    put_num(f, span_quantile(name.c_str(), 0.5, 1e3));
    std::fputs(", \"p99_us\": ", f);
    put_num(f, span_quantile(name.c_str(), 0.99, 1e3));
    std::fputs("}", f);
    first = false;
  }
  std::fprintf(f, "\n },\n \"spans_dropped\": %llu}\n",
               static_cast<unsigned long long>(s.dropped()));
  std::fclose(f);
}

}  // namespace dfth::perf
