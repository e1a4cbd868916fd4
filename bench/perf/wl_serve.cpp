// serve: the serving front-end (src/serve/) under open-loop Poisson arrivals
// over the seven apps as endpoints at small per-request sizes. Arrivals are
// independent users, so the generator sends on schedule whatever the backlog:
// one fiber paces them at a fixed 600 req/s (p = nproc) or 600/nproc req/s
// (p = 1), and each latency runs from the arrival's *due* time to the
// request's finish, so a stall is charged to every request it delays. Only
// this workload runs the ingress, admission, deadline and shedding layers.
//
// Every request must terminate exactly once, with zero tracked bytes left,
// inside the admission budget, and with an output equal to the serial one.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/barnes/barnes.h"
#include "apps/dtree/dtree.h"
#include "apps/fft/fft.h"
#include "apps/fmm/fmm.h"
#include "apps/matmul/matmul.h"
#include "apps/spmv/spmv.h"
#include "apps/volrend/volrend.h"
#include "harness.h"
#include "runtime/sync.h"
#include "serve/server.h"
#include "space/tracked_heap.h"
#include "util/rng.h"

namespace dfth::perf {
namespace {

constexpr double kRateRps = 600;

/// Shared read-only endpoint inputs and their serial outputs. As in the apps
/// workload, the seed draws values and orders; the data that set a
/// request's cost keep the apps' default seeds.
struct Inputs {
  apps::MatmulConfig mm;
  std::vector<double> mm_a, mm_b, mm_ref;
  std::size_t fft_n = 1u << 10;
  std::vector<apps::Complex> fft_in, fft_ref;
  apps::SpmvConfig sp;
  std::unique_ptr<apps::CsrMatrix> sp_m;
  std::vector<double> sp_v, sp_ref;
  apps::DtreeConfig dt;
  std::vector<apps::Instance> dt_data;
  std::unique_ptr<apps::DtreeNode> dt_ref;
  apps::BarnesConfig bh;
  std::vector<apps::Body> bh_bodies;
  apps::BarnesResult bh_ref;
  apps::FmmConfig fmm;
  std::vector<apps::FmmParticle> fmm_in, fmm_ref;
  apps::VolrendConfig vr;
  std::unique_ptr<apps::Volume> vr_vol;
  apps::Image vr_ref;
};

struct Endpoint {
  const char* name;
  int priority;
  std::size_t mem_bound;
  std::function<void()> serial;  ///< the same request as plain code
  /// Serves one request inside run(); returns false when the output differs
  /// from the serial one.
  std::function<bool()> handle;
};

double max_diff(const double* a, const double* b, std::size_t n) {
  double d = 0;
  for (std::size_t i = 0; i < n; ++i) d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  in->mm.n = 64;
  in->mm.base = 16;
  in->mm_a.resize(64 * 64);
  in->mm_b.resize(64 * 64);
  in->mm_ref.resize(64 * 64);
  apps::matmul_fill(in->mm_a.data(), 64, seed);
  apps::matmul_fill(in->mm_b.data(), 64, seed + 1);
  apps::matmul_serial(in->mm_a.data(), in->mm_b.data(), in->mm_ref.data(), in->mm);

  in->fft_in.resize(in->fft_n);
  in->fft_ref.resize(in->fft_n);
  apps::fft_fill(in->fft_in.data(), in->fft_n, seed + 2);
  apps::FftPlan(in->fft_n).execute_serial(in->fft_in.data(), in->fft_ref.data());

  in->sp.rows = 2048;
  in->sp.target_nnz = 10240;
  in->sp.iterations = 2;
  in->sp.threads_per_iter = 16;
  in->sp_m = std::make_unique<apps::CsrMatrix>(in->sp.rows, in->sp.rows);
  apps::spmv_generate(*in->sp_m, in->sp);
  Rng rng(seed + 3);
  in->sp_v.resize(in->sp.rows);
  for (double& x : in->sp_v) x = rng.next_double(-1, 1);
  in->sp_ref.assign(in->sp.rows, 0.0);
  apps::spmv_serial(*in->sp_m, in->sp_v.data(), in->sp_ref.data());

  in->dt.instances = 2000;
  in->dt.serial_cutoff = 500;
  in->dt.min_leaf = 32;
  in->dt_data = apps::dtree_generate(in->dt);
  shuffle(in->dt_data, seed + 4);
  in->dt_ref = apps::dtree_build_serial(in->dt_data, in->dt);

  in->bh.bodies = 192;
  in->bh.timesteps = 1;
  in->bh_bodies = apps::barnes_generate(in->bh);
  shuffle(in->bh_bodies, seed + 5);
  in->bh_ref = apps::barnes_serial(in->bh_bodies, in->bh);

  in->fmm.particles = 192;
  in->fmm.levels = 2;
  in->fmm.terms = 4;
  in->fmm.chunk = 9;
  in->fmm.seed = seed + 6;
  in->fmm_in = apps::fmm_generate(in->fmm);
  in->fmm_ref = in->fmm_in;
  apps::fmm_serial(in->fmm_ref, in->fmm);

  in->vr.volume_dim = 32;
  in->vr.image_dim = 32;
  in->vr.tiles_per_thread = 8;
  in->vr_vol = std::make_unique<apps::Volume>(in->vr);
  in->vr_ref = apps::volrend_serial(*in->vr_vol, in->vr);
  return in;
}

/// The endpoint table. Handlers allocate their outputs through df_malloc,
/// so the admission budget is what bounds the heap, and poison them first:
/// the block may be the one that held the previous request's result.
std::vector<Endpoint> make_endpoints(const Inputs& in) {
  std::vector<Endpoint> eps;
  eps.push_back({"matmul", 0, 512 << 10,
                 [&in] {
                   std::vector<double> c(in.mm.n * in.mm.n);
                   apps::matmul_serial(in.mm_a.data(), in.mm_b.data(), c.data(), in.mm);
                 },
                 [&in] {
                   const std::size_t n = in.mm.n * in.mm.n;
                   auto* c = static_cast<double*>(df_malloc(n * sizeof(double)));
                   poison(c, n);
                   apps::matmul_threaded(in.mm_a.data(), in.mm_b.data(), c, in.mm);
                   const bool ok = max_diff(c, in.mm_ref.data(), n) < 1e-9;
                   df_free(c);
                   return ok;
                 }});
  eps.push_back({"fft", 0, 256 << 10,
                 [&in] {
                   std::vector<apps::Complex> out(in.fft_n);
                   apps::FftPlan(in.fft_n).execute_serial(in.fft_in.data(), out.data());
                 },
                 [&in] {
                   auto* out = static_cast<apps::Complex*>(
                       df_malloc(in.fft_n * sizeof(apps::Complex)));
                   poison(out, in.fft_n);
                   apps::FftPlan(in.fft_n).execute_threaded(in.fft_in.data(), out, 8);
                   const bool ok = apps::fft_max_abs_diff(out, in.fft_ref.data(),
                                                          in.fft_n) < 1e-12;
                   df_free(out);
                   return ok;
                 }});
  eps.push_back({"spmv", 1, 256 << 10,
                 [&in] {
                   std::vector<double> w(in.sp.rows);
                   for (int it = 0; it < in.sp.iterations; ++it) {
                     apps::spmv_serial(*in.sp_m, in.sp_v.data(), w.data());
                   }
                 },
                 [&in] {
                   auto* w = static_cast<double*>(df_malloc(in.sp.rows * sizeof(double)));
                   poison(w, in.sp.rows);
                   apps::spmv_fine(*in.sp_m, in.sp_v.data(), w, in.sp);
                   const bool ok = max_diff(w, in.sp_ref.data(), in.sp.rows) < 1e-12;
                   df_free(w);
                   return ok;
                 }});
  eps.push_back({"dtree", 1, 512 << 10,
                 [&in] { apps::dtree_build_serial(in.dt_data, in.dt); },
                 [&in] {
                   auto tree = apps::dtree_build_threaded(in.dt_data, in.dt);
                   return tree && apps::dtree_equal(*tree, *in.dt_ref);
                 }});
  eps.push_back({"barnes", 2, 512 << 10,
                 [&in] { apps::barnes_serial(in.bh_bodies, in.bh); },
                 [&in] {
                   const apps::BarnesResult r = apps::barnes_fine(in.bh_bodies, in.bh);
                   return r.interactions == in.bh_ref.interactions;
                 }});
  eps.push_back({"fmm", 2, 512 << 10,
                 [&in] {
                   auto copy = in.fmm_in;
                   apps::fmm_serial(copy, in.fmm);
                 },
                 [&in] {
                   auto copy = in.fmm_in;
                   apps::fmm_threaded(copy, in.fmm);
                   double worst = 0;
                   for (std::size_t i = 0; i < copy.size(); ++i) {
                     worst = std::max(worst,
                                      std::abs(copy[i].potential - in.fmm_ref[i].potential));
                   }
                   return worst < 1e-9;
                 }});
  eps.push_back({"volrend", 2, 512 << 10,
                 [&in] { apps::volrend_serial(*in.vr_vol, in.vr); },
                 [&in] {
                   return apps::volrend_images_equal(apps::volrend_fine(*in.vr_vol, in.vr),
                                                     in.vr_ref);
                 }});
  return eps;
}

/// One open-loop serving phase: the arrival schedule and what happened.
struct Phase {
  Variant variant = Variant::Pn;
  bool traced = false;
  std::vector<std::uint64_t> offset_ns;  ///< due time after the phase start
  std::vector<int> endpoint;
  // Filled by the run.
  std::vector<std::uint64_t> due_ns, sent_ns;
  std::vector<double> heap_seen;  ///< tracked MiB in use found by each arrival
  std::unique_ptr<serve::Request[]> reqs;
  std::vector<std::uint32_t> done;  ///< on_done calls per request
  std::vector<std::uint8_t> bad;    ///< output differed from serial
  serve::ServeReport report;
  std::int64_t budget = 0;
  std::int64_t live_before = 0, live_after = 0;
  Unit unit;
};

Phase make_phase(Rng& rng, Variant v, bool traced, double rate, double seconds,
                 int endpoints) {
  Phase ph;
  ph.variant = v;
  ph.traced = traced;
  // The first arrivals visit every endpoint once, so even a short phase
  // measures each of them.
  double t = 0;
  for (int i = 0;; ++i) {
    t += -std::log(rng.next_double(1e-12, 1.0)) / rate;
    if (t >= seconds && i >= endpoints) break;
    ph.offset_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
    ph.endpoint.push_back(
        i < endpoints ? i
                      : static_cast<int>(rng.next_below(static_cast<std::uint64_t>(endpoints))));
  }
  return ph;
}

void run_phase(const Ctx& ctx, Phase& ph, const std::vector<Endpoint>& eps) {
  const std::size_t n = ph.offset_ns.size();
  ph.due_ns.assign(n, 0);
  ph.sent_ns.assign(n, 0);
  ph.heap_seen.assign(n, 0);
  ph.reqs = std::make_unique<serve::Request[]>(n);
  ph.done.assign(n, 0);
  ph.bad.assign(n, 0);
  ph.live_before = TrackedHeap::instance().live_bytes();

  serve::ServerConfig cfg;
  // The benchmark fails no request, whatever the host does: the ingress
  // holds every arrival of the phase, and the shed tiers are never entered.
  // Their depth signal can read a transient underflow (IngressRing bumps
  // depth_ after publishing the cell, so the pump may pop and decrement
  // first), which sends the tier to drain-only and sheds a request or two on
  // an idle server; infinite thresholds keep the tier logic running but out
  // of that state.
  cfg.ingress_capacity = std::max<std::size_t>(1024, n);
  cfg.shed.shed_enter_depth = std::numeric_limits<double>::infinity();
  cfg.shed.drain_enter_depth = std::numeric_limits<double>::infinity();
  cfg.mem_budget = static_cast<std::size_t>(std::max<std::int64_t>(ph.live_before, 0)) +
                   (std::size_t{16} << 20);
  cfg.max_inflight = 16;
  cfg.shed_priority_floor = 2;
  cfg.poll_ns = 100'000;
  ph.budget = static_cast<std::int64_t>(cfg.mem_budget);
  std::vector<serve::EndpointSpec> specs;
  for (std::size_t e = 0; e < eps.size(); ++e) {
    serve::EndpointSpec s;
    s.name = eps[e].name;
    s.priority = eps[e].priority;
    s.mem_bound = eps[e].mem_bound;
    // Armed on every request, so the deadline layer runs, but longer than
    // any phase: no stall of the host expires a request.
    s.deadline_ns = 30'000'000'000;
    s.handler = [&ph, &eps, e](serve::Request& r) {
      if (cancel_requested()) return;
      if (!eps[e].handle()) ph.bad[r.id] = 1;
    };
    specs.push_back(std::move(s));
  }

  auto body = [&] {
    serve::Server server(cfg, specs);
    Mutex done_mu;
    server.set_on_done([&ph, &done_mu](serve::Request* r) {
      timed("lock", [&done_mu] { done_mu.lock(); });
      ++ph.done[r->id];
      done_mu.unlock();
    });
    const std::uint64_t s0 = span_begin();
    Thread pump = spawn([&server]() -> void* {
      server.pump();
      return nullptr;
    });
    span_end("spawn", s0);
    Semaphore nap(0);  // never released: a timed sleep until the next arrival
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = start + ph.offset_ns[i];
      for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
        nap.try_acquire_for(due - now);
      }
      serve::Request* r = &ph.reqs[i];
      r->id = i;
      r->endpoint = ph.endpoint[i];
      ph.due_ns[i] = due;
      ph.sent_ns[i] = now_ns();
      ph.heap_seen[i] =
          static_cast<double>(TrackedHeap::instance().live_bytes() - ph.live_before) /
          (1024.0 * 1024.0);
      timed("submit", [&server, r] { return server.submit(r); });
    }
    server.stop();
    const std::uint64_t s1 = span_begin();
    join(pump);
    span_end("join", s1);
    ph.report = server.report();
  };
  ph.unit = run_unit(ctx, ph.variant, ph.traced, body,
                     [](RuntimeOptions& o) { o.mem_quota = 64 << 10; });
  ph.live_after = TrackedHeap::instance().live_bytes();

  if (ph.traced) {
    Spans& sp = Spans::instance();
    for (std::size_t i = 0; i < n; ++i) {
      const serve::Request& r = ph.reqs[i];
      const std::uint64_t id = sp.open();
      sp.close(id, "request", ph.due_ns[i], std::max(r.finish_ns, ph.due_ns[i]), 0, i + 1);
      if (r.admit_ns != 0) {
        sp.record("queue", r.submit_ns, r.admit_ns, id, i + 1);
        sp.record("service", r.admit_ns, r.finish_ns, id, i + 1);
      }
    }
  }
}

/// Latencies (ms, due -> finish) of the phase's completed requests, of one
/// endpoint when ep >= 0.
std::vector<double> latencies(const Phase& ph, int ep = -1, bool service = false) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ph.offset_ns.size(); ++i) {
    const serve::Request& r = ph.reqs[i];
    if (r.outcome != serve::Outcome::kCompleted) continue;
    if (ep >= 0 && ph.endpoint[i] != ep) continue;
    out.push_back(static_cast<double>(r.finish_ns - (service ? r.admit_ns : ph.due_ns[i])) /
                  1e6);
  }
  return out;
}

void check_phase(const Phase& ph, Results& res) {
  const std::string tag = std::string("serve ") + to_string(ph.variant) + ": ";
  std::uint64_t pending = 0, twice = 0, leaked = 0, bad = 0;
  for (std::size_t i = 0; i < ph.offset_ns.size(); ++i) {
    const serve::Request& r = ph.reqs[i];
    if (r.outcome == serve::Outcome::kPending) ++pending;
    if (ph.done[i] != 1) ++twice;
    if (r.bytes_live.load() != 0) ++leaked;
    if (ph.bad[i]) ++bad;
    if (r.outcome == serve::Outcome::kRejected || r.outcome == serve::Outcome::kExpired) {
      ++res.failed;
    }
  }
  res.attempted += ph.offset_ns.size();
  res.check(pending == 0 && twice == 0,
            tag + std::to_string(pending) + " requests never terminated, " +
                std::to_string(twice) + " not terminated exactly once");
  res.check(leaked == 0 && ph.live_after == ph.live_before,
            tag + std::to_string(leaked) + " requests leaked tracked bytes; live " +
                std::to_string(ph.live_before) + " -> " + std::to_string(ph.live_after));
  res.check(ph.report.peak_live_bytes <= ph.budget,
            tag + "tracked heap peak " + std::to_string(ph.report.peak_live_bytes) +
                " exceeded the budget " + std::to_string(ph.budget));
  res.check(bad == 0, tag + std::to_string(bad) + " outputs differ from serial");
}

}  // namespace

void run_serve(const Ctx& ctx, Results& res) {
  std::unique_ptr<Inputs> in;
  std::vector<Endpoint> eps;
  Rng rng(ctx.seed);
  const double setup_s = timed_setup([&] {
    in = make_inputs(ctx.seed);
    eps = make_endpoints(*in);
    Phase warm = make_phase(rng, Variant::Pn, false, kRateRps, ctx.smoke ? 0.05 : 0.3,
                            static_cast<int>(eps.size()));
    run_phase(ctx, warm, eps);
  });

  // One cycle of phases, as shares of its time; the run repeats the cycle,
  // so every variant, and the serial reference between them, samples the
  // host across the whole run rather than one stretch of it (a shared host
  // changes speed over seconds). Serial slices time each endpoint's plain
  // code back to back, each call on the next core of the affinity mask (see
  // CpuPin). A traced run interleaves untraced and traced phases of the same
  // variants.
  struct Plan {
    Variant v;
    bool traced;
    double share;
  };
  std::vector<Plan> cycle;
  if (ctx.traced) {
    cycle = {{Variant::Pn, false, 0.16}, {Variant::Pn, true, 0.16},
             {Variant::Serial, false, 0.06}, {Variant::Ws, false, 0.12},
             {Variant::Ws, true, 0.12}, {Variant::Serial, false, 0.06},
             {Variant::P1, false, 0.26}, {Variant::Serial, false, 0.06}};
  } else {
    cycle = {{Variant::Pn, false, 0.3}, {Variant::Serial, false, 0.06},
             {Variant::Ws, false, 0.2}, {Variant::Serial, false, 0.06},
             {Variant::P1, false, 0.32}, {Variant::Serial, false, 0.06}};
  }
  const int cycles = ctx.smoke ? 1 : 10;
  const double cycle_s = (ctx.smoke ? 1.0 : ctx.seconds) / cycles;
  std::vector<Phase> phases;
  std::vector<std::vector<double>> serial(eps.size());  // ms per plain call
  std::vector<std::vector<double>> serial_steal(eps.size());  // steal_share() of each
  std::size_t calls = 0;  // serial calls so far: endpoint and core rotate
  for (int c = 0; c < cycles; ++c) {
    for (const Plan& p : cycle) {
      if (p.v == Variant::Serial) {
        const std::uint64_t t_end =
            clock_ns() + static_cast<std::uint64_t>(cycle_s * p.share * 1e9);
        while (clock_ns() < t_end || serial.back().empty()) {
          const std::size_t e = calls % eps.size();
          CpuPin pin(static_cast<int>(calls++ % static_cast<std::size_t>(ctx.nproc)));
          const double steal0 = host_steal_s();
          const std::uint64_t t0 = clock_ns();
          eps[e].serial();
          const std::uint64_t t1 = clock_ns();
          serial_steal[e].push_back(steal_share(steal0, host_steal_s(), t1 - t0));
          serial[e].push_back(static_cast<double>(t1 - t0) / 1e6);
        }
        continue;
      }
      const double rate = p.v == Variant::P1 ? kRateRps / ctx.nproc : kRateRps;
      phases.push_back(make_phase(rng, p.v, p.traced, rate, cycle_s * p.share,
                                  static_cast<int>(eps.size())));
      run_phase(ctx, phases.back(), eps);
      check_phase(phases.back(), res);
    }
  }

  // Latency metrics are taken per endpoint and then combined, so they do not
  // depend on which endpoint a seed's mix puts at the overall median. The
  // ratios are geomeans over endpoints, as over the batch workloads' items,
  // of median service time (admit -> finish) against serial time: from the
  // due time, a cheap request's latency is mostly generator lateness and
  // wake-ups, which a busy host stretches more than it stretches plain code.
  // tail_ms is the median over phases of each phase's p90 (the batch
  // workloads' tail is a p90 too), so that one stall of the host moves one
  // phase rather than the run's tail; a phase has about 360 requests, so
  // its p90 has some 36 beyond it. Phases and serial calls during which the
  // hypervisor held more than kMaxSteal of the CPUs are left out, down to
  // the least-stolen quarter of their kind (see least_stolen()).
  std::vector<Unit> units;
  for (const Phase& ph : phases) units.push_back(ph.unit);
  const std::vector<bool> kept = unstolen(units);
  auto pooled = [&](Variant v, bool traced, int ep, bool service = false) {
    std::vector<double> l;
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const Phase& ph = phases[i];
      if (ph.variant != v || ph.traced != traced || !kept[i]) continue;
      const std::vector<double> x = latencies(ph, ep, service);
      l.insert(l.end(), x.begin(), x.end());
    }
    return l;
  };
  const int n_eps = static_cast<int>(eps.size());
  auto mean_p50 = [&](Variant v, bool traced) {
    double sum = 0;
    for (int e = 0; e < n_eps; ++e) sum += median(pooled(v, traced, e));
    return sum / n_eps;
  };
  std::vector<double> serial_ms;
  for (std::size_t e = 0; e < serial.size(); ++e) {
    const std::vector<bool> keep = least_stolen(serial_steal[e]);
    std::vector<double> t;
    for (std::size_t k = 0; k < serial[e].size(); ++k) {
      if (keep[k]) t.push_back(serial[e][k]);
    }
    serial_ms.push_back(median(t));
  }
  // Geomean over endpoints of median service time / serial time.
  auto service_ratio = [&](Variant v) {
    double log_sum = 0;
    for (int e = 0; e < n_eps; ++e) {
      log_sum += std::log(median(pooled(v, false, e, true)) /
                          serial_ms[static_cast<std::size_t>(e)]);
    }
    return std::exp(log_sum / n_eps);
  };
  const std::vector<double> pn = pooled(Variant::Pn, false, -1);
  const double p50 = mean_p50(Variant::Pn, false);

  std::vector<double> heap;       // what arrivals found in use, p = nproc AsyncDF
  std::vector<double> phase_p90;  // per p = nproc AsyncDF phase
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Phase& ph = phases[i];
    if (ph.variant == Variant::Pn && !ph.traced && kept[i]) {
      heap.insert(heap.end(), ph.heap_seen.begin(), ph.heap_seen.end());
      phase_p90.push_back(quantile(latencies(ph), 0.9));
    }
  }
  res.add_e2e("setup_s", setup_s, "s");
  res.add_e2e("wall_ms", p50, "ms");
  res.add_e2e("tail_ms", median(phase_p90), "ms");
  res.add_e2e("speedup", 1 / service_ratio(Variant::Pn), "x");
  res.add_e2e("ws_speedup", 1 / service_ratio(Variant::Ws), "x");
  res.add_e2e("p1_overhead", service_ratio(Variant::P1), "x");
  // An arrival sees the heap as a time average does (Poisson arrivals), so
  // this high percentile repeats where the burst maximum would not.
  res.add_e2e("heap_peak_mb", quantile(heap, 0.9), "MiB");
  res.add_e2e("rss_peak_mb", rss_peak_mb(), "MiB");
  res.add_info("stolen_units", static_cast<double>(std::count(kept.begin(), kept.end(), false)),
               "count");
  for (int e = 0; e < n_eps; ++e) {
    const std::string pre = std::string("serve.") + eps[static_cast<std::size_t>(e)].name;
    const std::vector<double> l = pooled(Variant::Pn, false, e);
    res.add_info(pre + ".serial_ms", serial_ms[static_cast<std::size_t>(e)], "ms");
    res.add_info(pre + ".service_ms", median(pooled(Variant::Pn, false, e, true)), "ms");
    res.add_info(pre + ".p50_ms", median(l), "ms");
    res.add_info(pre + ".p99_ms", quantile(l, 0.99), "ms");
  }

  double sent = 0, completed = 0, span_s = 0;
  std::vector<double> late;
  for (const Phase& ph : phases) {
    if (ph.variant != Variant::Pn || ph.traced) continue;
    sent += static_cast<double>(ph.offset_ns.size());
    completed += static_cast<double>(ph.report.completed);
    span_s += ph.unit.ms / 1e3;
    for (std::size_t i = 0; i < ph.offset_ns.size(); ++i) {
      late.push_back(static_cast<double>(ph.sent_ns[i] - ph.due_ns[i]) / 1e6);
    }
  }
  res.add_info("goodput_rps", completed / span_s, "1/s");
  res.add_info("offered_rps", sent / span_s, "1/s");
  res.add_info("p50_ms", median(pn), "ms");
  res.add_info("p99_ms", quantile(pn, 0.99), "ms");
  res.add_info("fail_ratio",
               static_cast<double>(res.failed) / static_cast<double>(res.attempted), "ratio");
  res.add_info("gen_late_ms.p99", quantile(late, 0.99), "ms");
  serve::ServeReport all;
  for (const Phase& ph : phases) {
    all.rejected_queue += ph.report.rejected_queue;
    all.rejected_shed += ph.report.rejected_shed;
    all.rejected_admission += ph.report.rejected_admission;
    all.expired_queue += ph.report.expired_queue + ph.report.expired_running;
  }
  const std::pair<const char*, std::uint64_t> outcomes[] = {
      {"rejected_queue", all.rejected_queue},
      {"rejected_shed", all.rejected_shed},
      {"rejected_admission", all.rejected_admission},
      {"expired", all.expired_queue}};
  for (const auto& [name, n] : outcomes) res.add_info(name, static_cast<double>(n), "count");
  res.add_info("requests", static_cast<double>(pn.size()), "count");
  if (!ctx.traced) return;

  add_layer_metrics(ctx, res, units);
  // Serving phases last as long as their arrival schedule, so the tracing
  // overhead is read off request latency instead of unit time.
  for (Metric& m : res.layer) {
    if (m.name == "obs.trace_overhead") m.value = mean_p50(Variant::Pn, true) / p50;
  }
  const char* tail = "tail_ms";
  std::vector<double> queue, service, tlate;
  for (const Phase& ph : phases) {
    if (ph.variant != Variant::Pn || !ph.traced) continue;
    for (std::size_t i = 0; i < ph.offset_ns.size(); ++i) {
      const serve::Request& r = ph.reqs[i];
      tlate.push_back(static_cast<double>(ph.sent_ns[i] - ph.due_ns[i]) / 1e6);
      if (r.admit_ns == 0) continue;
      queue.push_back(static_cast<double>(r.admit_ns - r.submit_ns) / 1e6);
      service.push_back(static_cast<double>(r.finish_ns - r.admit_ns) / 1e6);
    }
  }
  res.add_layer("serve.queue_wait_ms.p99", quantile(queue, 0.99), "ms", tail);
  res.add_layer("serve.service_ms.p99", quantile(service, 0.99), "ms", tail);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    std::vector<double> l;
    for (const Phase& ph : phases) {
      if (ph.variant != Variant::Pn || !ph.traced) continue;
      const std::vector<double> x = latencies(ph, static_cast<int>(e));
      l.insert(l.end(), x.begin(), x.end());
    }
    res.add_layer(std::string("serve.") + eps[e].name + ".p99_ms", quantile(l, 0.99), "ms",
                  tail);
  }
  for (const auto& [name, n] : outcomes) {
    res.add_layer(std::string("serve.") + name, static_cast<double>(n), "count", "failed");
  }
  res.add_layer("serve.gen_late_ms.p99", quantile(tlate, 0.99), "ms",
                "(validity of the open loop)");
  res.add_layer("runtime.lock_ns.p50", span_quantile("lock", 0.5, 1), "ns", tail);
  res.add_layer("serve.submit_ns.p50", span_quantile("submit", 0.5, 1), "ns", tail);
  res.add_layer("serve.submit_ns.p99", span_quantile("submit", 0.99, 1), "ns", tail);
}

}  // namespace dfth::perf
