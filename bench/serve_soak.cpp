// Serving soak: open-loop Poisson arrivals over a mix of the seven paper
// apps (tiny per-request problem sizes) served through the src/serve/
// front-end — bounded ingress, K-driven admission, per-request deadlines
// with caller-side retry/backoff, and tiered overload shedding.
//
// The acceptance bar is the robustness contract, not throughput: the soak
// must complete with zero crashes and zero watchdog aborts, every request
// must terminate in exactly one of {completed, rejected, deadline-expired},
// and the tracked-heap high water while serving must stay at or below the
// admission budget. Latency percentiles (p50/p99/p999 per endpoint from
// LogHistogram), rejection/shed/timeout counts, the admission-headroom time
// series and peak RSS are written to BENCH_serve_soak.json; read it back
// with `tools/dfth-trace --serve BENCH_serve_soak.json`.
//
// CI runs this on the default build with a fixed fault seed, then uses
// --record-dir / --replay-dir (one run per engine pass, like faults_soak)
// to gate the record leg against the replay leg on the DFTH-SIG lines.
#include <cmath>
#include <cstdio>
#include <filesystem>
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
#include "bench_common.h"
#include "replay/signature.h"
#include "resil/faults.h"
#include "runtime/sync.h"
#include "serve/retry.h"
#include "serve/server.h"
#include "space/tracked_heap.h"
#include "util/rng.h"

namespace {

using namespace dfth;

// Shared read-only inputs, generated once (outside run(); their bytes are
// part of the server's baseline, not of any request's budget).
struct SoakInputs {
  apps::MatmulConfig mm_cfg;
  std::vector<double> mm_a, mm_b;

  std::size_t fft_n = 1u << 10;
  std::vector<apps::Complex> fft_in;

  apps::SpmvConfig spmv_cfg;
  std::unique_ptr<apps::CsrMatrix> spmv_m;
  std::vector<double> spmv_v;

  apps::DtreeConfig dt_cfg;
  std::vector<apps::Instance> dt_data;

  apps::BarnesConfig bh_cfg;
  std::vector<apps::Body> bh_bodies;

  apps::FmmConfig fmm_cfg;
  std::vector<apps::FmmParticle> fmm_particles;

  apps::VolrendConfig vr_cfg;
  std::unique_ptr<apps::Volume> vr_vol;
};

SoakInputs make_inputs(std::uint64_t seed) {
  SoakInputs in;
  in.mm_cfg.n = 64;
  in.mm_cfg.base = 16;
  in.mm_a.resize(in.mm_cfg.n * in.mm_cfg.n);
  in.mm_b.resize(in.mm_cfg.n * in.mm_cfg.n);
  apps::matmul_fill(in.mm_a.data(), in.mm_cfg.n, seed);
  apps::matmul_fill(in.mm_b.data(), in.mm_cfg.n, seed + 1);

  in.fft_in.resize(in.fft_n);
  apps::fft_fill(in.fft_in.data(), in.fft_n, seed + 2);

  in.spmv_cfg.rows = 2048;
  in.spmv_cfg.target_nnz = 10240;
  in.spmv_cfg.iterations = 2;
  in.spmv_cfg.threads_per_iter = 16;
  in.spmv_cfg.seed = seed + 3;
  in.spmv_m = std::make_unique<apps::CsrMatrix>(in.spmv_cfg.rows, in.spmv_cfg.rows);
  apps::spmv_generate(*in.spmv_m, in.spmv_cfg);
  in.spmv_v.assign(in.spmv_cfg.rows, 1.0);

  in.dt_cfg.instances = 2000;
  in.dt_cfg.serial_cutoff = 500;
  in.dt_cfg.min_leaf = 32;
  in.dt_cfg.seed = seed + 4;
  in.dt_data = apps::dtree_generate(in.dt_cfg);

  in.bh_cfg.bodies = 192;
  in.bh_cfg.timesteps = 1;
  in.bh_cfg.seed = seed + 5;
  in.bh_bodies = apps::barnes_generate(in.bh_cfg);

  in.fmm_cfg.particles = 192;
  in.fmm_cfg.levels = 2;
  in.fmm_cfg.terms = 4;
  in.fmm_cfg.chunk = 9;
  in.fmm_cfg.seed = seed + 6;
  in.fmm_particles = apps::fmm_generate(in.fmm_cfg);

  in.vr_cfg.volume_dim = 32;
  in.vr_cfg.image_dim = 32;
  in.vr_cfg.tiles_per_thread = 8;
  in.vr_cfg.seed = seed + 7;
  in.vr_vol = std::make_unique<apps::Volume>(in.vr_cfg);
  return in;
}

/// The seven endpoint handlers. Each allocates its per-request output
/// through df_malloc (so the admission budget is what bounds the heap) and
/// polls dfth::cancel_requested() between phases where it has any — the
/// cooperative-drain points for deadline expiry.
std::vector<serve::EndpointSpec> make_endpoints(const SoakInputs& in) {
  std::vector<serve::EndpointSpec> eps;

  {
    serve::EndpointSpec e;
    e.name = "matmul";
    e.priority = 0;
    e.mem_bound = 512 << 10;
    e.handler = [&in](serve::Request&) {
      const std::size_t n = in.mm_cfg.n;
      auto* c = static_cast<double*>(df_malloc(n * n * sizeof(double)));
      if (c == nullptr) return;
      if (!cancel_requested()) {
        apps::matmul_threaded(in.mm_a.data(), in.mm_b.data(), c, in.mm_cfg);
      }
      df_free(c);
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "fft";
    e.priority = 0;
    e.mem_bound = 256 << 10;
    e.handler = [&in](serve::Request&) {
      auto* out = static_cast<apps::Complex*>(
          df_malloc(in.fft_n * sizeof(apps::Complex)));
      if (out == nullptr) return;
      if (!cancel_requested()) {
        apps::FftPlan plan(in.fft_n);
        plan.execute_threaded(in.fft_in.data(), out, 8);
      }
      df_free(out);
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "spmv";
    e.priority = 1;
    e.mem_bound = 256 << 10;
    e.handler = [&in](serve::Request&) {
      auto* w = static_cast<double*>(
          df_malloc(in.spmv_cfg.rows * sizeof(double)));
      if (w == nullptr) return;
      for (int it = 0; it < in.spmv_cfg.iterations; ++it) {
        if (cancel_requested()) break;  // cooperative drain between sweeps
        apps::spmv_fine(*in.spmv_m, in.spmv_v.data(), w, in.spmv_cfg);
      }
      df_free(w);
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "dtree";
    e.priority = 1;
    e.mem_bound = 512 << 10;
    e.handler = [&in](serve::Request&) {
      if (cancel_requested()) return;
      auto tree = apps::dtree_build_threaded(in.dt_data, in.dt_cfg);
      (void)tree;
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "barnes";
    e.priority = 2;
    e.mem_bound = 512 << 10;
    e.handler = [&in](serve::Request&) {
      if (cancel_requested()) return;
      apps::barnes_fine(in.bh_bodies, in.bh_cfg);  // copies its input
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "fmm";
    e.priority = 2;
    e.mem_bound = 512 << 10;
    e.handler = [&in](serve::Request&) {
      if (cancel_requested()) return;
      auto copy = in.fmm_particles;
      apps::fmm_threaded(copy, in.fmm_cfg);
    };
    eps.push_back(std::move(e));
  }
  {
    serve::EndpointSpec e;
    e.name = "volrend";
    e.priority = 2;
    e.mem_bound = 512 << 10;
    e.handler = [&in](serve::Request&) {
      if (cancel_requested()) return;
      apps::volrend_fine(*in.vr_vol, in.vr_cfg);
    };
    eps.push_back(std::move(e));
  }
  return eps;
}

struct PassResult {
  std::string tag;
  RunStats stats;
  serve::ServeReport report;
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t completed = 0, rejected = 0, expired = 0;  // final outcomes
  std::int64_t baseline_live = 0;
  std::uint64_t wall_span_ns = 0;  ///< engine-clock span of the soak
};

struct SoakParams {
  int requests = 120;
  std::uint64_t mean_gap_ns = 400'000;
  std::uint64_t seed = 0x5eed;
  serve::RetryPolicy retry;
};

/// Runs the client+server inside an already-running engine. Returns through
/// `out` (final-outcome counts, serve report).
void soak_body(serve::Server& server, std::vector<serve::Request>& arena,
               const SoakParams& prm, PassResult* out) {
  // Retry plumbing: on_done pushes rejected-but-retryable requests here
  // with an absolute due time; the client loop resubmits them.
  struct Pending {
    std::uint64_t due_ns;
    serve::Request* r;
  };
  // All client-side bookkeeping lives under one runtime Mutex (not raw
  // atomics): every acquisition is a pinned sync decision, so the counters —
  // and the client loop's control flow that reads them — are deterministic
  // under strict replay.
  Mutex retry_mu;
  std::vector<Pending> retry_q;
  std::uint64_t terminal = 0;
  std::uint64_t retries = 0;
  std::uint64_t completed = 0, rejected = 0, expired = 0;

  // The terminal-outcome hook: decide retry-vs-final here, once, so every
  // request is counted exactly once. Installed before the pump starts.
  server.set_on_done([&](serve::Request* r) {
    if (serve::should_retry(prm.retry, *r)) {
      const std::uint64_t due =
          now_ns() + serve::backoff_ns(prm.retry, r->id, r->attempt + 1, prm.seed);
      LockGuard g(retry_mu);
      retry_q.push_back({due, r});
      return;
    }
    LockGuard g(retry_mu);
    switch (r->outcome) {
      case serve::Outcome::kCompleted: ++completed; break;
      case serve::Outcome::kRejected: ++rejected; break;
      case serve::Outcome::kExpired: ++expired; break;
      case serve::Outcome::kPending: break;  // unreachable; finish() checks
    }
    ++terminal;
  });

  Thread pump = spawn([&server]() -> void* {
    server.pump();
    return nullptr;
  });

  const std::uint64_t start_ns = now_ns();
  Rng rng(prm.seed ^ 0xc11e47ull);
  Semaphore zzz(0);  // never released: pure timed sleep
  std::uint64_t next_arrival = start_ns;
  std::size_t next_idx = 0;
  const auto n_endpoints = 7u;

  for (;;) {
    const std::uint64_t now = now_ns();

    // Resubmit due retries first (they are older than any new arrival).
    serve::Request* due_retry = nullptr;
    std::uint64_t nearest_due = ~std::uint64_t{0};
    {
      LockGuard g(retry_mu);
      if (terminal >= arena.size()) break;
      for (std::size_t i = 0; i < retry_q.size(); ++i) {
        if (retry_q[i].due_ns <= now) {
          due_retry = retry_q[i].r;
          retry_q[i] = retry_q.back();
          retry_q.pop_back();
          break;
        }
        if (retry_q[i].due_ns < nearest_due) nearest_due = retry_q[i].due_ns;
      }
      if (due_retry != nullptr) ++retries;
    }
    if (due_retry != nullptr) {
      ++due_retry->attempt;
      due_retry->reset_for_retry();
      server.submit(due_retry);  // a full ring re-rejects through on_done
      continue;
    }

    // Open-loop Poisson arrivals: exponential inter-arrival gaps.
    if (next_idx < arena.size() && now >= next_arrival) {
      serve::Request* r = &arena[next_idx];
      r->id = next_idx;
      // Endpoint mix: uniform over the seven apps.
      r->endpoint = static_cast<int>(rng.next_below(n_endpoints));
      ++next_idx;
      const double u = rng.next_double(1e-9, 1.0);
      next_arrival = now + static_cast<std::uint64_t>(
                               -std::log(u) * static_cast<double>(prm.mean_gap_ns));
      server.submit(r);
      continue;
    }

    // Idle: sleep until the next arrival or retry due time (bounded poll).
    std::uint64_t wake = next_idx < arena.size() ? next_arrival : now + 200'000;
    if (nearest_due < wake) wake = nearest_due;
    const std::uint64_t nap = wake > now ? wake - now : 50'000;
    zzz.try_acquire_for(nap > 2'000'000 ? 2'000'000 : nap);
  }

  server.stop();
  join(pump);
  out->requests = arena.size();
  {
    LockGuard g(retry_mu);
    out->retries = retries;
    out->completed = completed;
    out->rejected = rejected;
    out->expired = expired;
  }
  out->wall_span_ns = now_ns() - start_ns;
  out->report = server.report();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfth;
  bench::Common common("serve_soak",
                       "serving soak: Poisson arrivals over the seven apps");
  auto* requests = common.cli.int_opt("requests", 120, "arrivals per pass");
  auto* gap_us = common.cli.int_opt("mean-gap-us", 400,
                                    "mean Poisson inter-arrival gap");
  auto* procs = common.cli.int_opt("procs", 4, "processor count");
  auto* budget_kb = common.cli.int_opt(
      "budget-kb", 4096, "admission budget over baseline, KiB");
  auto* fault_seed = common.cli.int_opt(
      "fault-seed", 0, "fault-plan seed (0 = no fault plan)");
  auto* record_dir = common.cli.str_opt(
      "record-dir", "", "record each pass's schedule log into this directory");
  auto* replay_dir = common.cli.str_opt(
      "replay-dir", "", "replay each pass from this directory's schedule logs");
  if (!common.parse(argc, argv)) return 0;

  const bool recording = !record_dir->empty();
  const bool replaying = !replay_dir->empty();
  if (recording && replaying) {
    std::fprintf(stderr, "serve_soak: --record-dir and --replay-dir are exclusive\n");
    return 1;
  }
  if (recording) std::filesystem::create_directories(*record_dir);

  SoakParams prm;
  prm.requests = static_cast<int>(*requests);
  prm.mean_gap_ns = static_cast<std::uint64_t>(*gap_us) * 1000;
  prm.seed = static_cast<std::uint64_t>(*common.seed);

  resil::FaultPlan plan;
  const bool faulting = *fault_seed != 0;
  if (faulting) {
    plan.seed = static_cast<std::uint64_t>(*fault_seed);
    Rng rng(plan.seed);
    for (int i = 0; i < resil::kNumFaultSites; ++i) {
      resil::SiteSpec& s = plan.sites[i];
      s.every_nth = static_cast<std::uint64_t>(rng.next_range(3, 9));
      s.probability = rng.next_double(0.01, 0.06);
      s.skip_first = static_cast<std::uint64_t>(rng.next_range(0, 8));
      s.max_failures = 100000;
    }
    // The serve pump leans on timed waits for pacing; forcing sync timeouts
    // would only re-test the primitive, so that site stays quiet here too.
    plan.site(resil::FaultSite::kSyncTimeout) = resil::SiteSpec{};
    std::printf("fault-plan seed: %llu\n",
                static_cast<unsigned long long>(plan.seed));
  }

  SoakInputs inputs = make_inputs(prm.seed);
  const std::int64_t baseline = TrackedHeap::instance().live_bytes();

  struct PassSpec {
    const char* tag;
    EngineKind engine;
  };
  const PassSpec pass_specs[] = {
      {"sim", EngineKind::Sim},
      {"real", EngineKind::Real},
  };

  std::vector<PassResult> results;
  int failures = 0;

  for (const PassSpec& ps : pass_specs) {
    std::atomic<std::uint64_t> heartbeat{0};

    RuntimeOptions opts;
    opts.engine = ps.engine;
    opts.sched = SchedKind::AsyncDf;
    opts.nprocs = static_cast<int>(*procs);
    opts.default_stack_size = 64 << 10;
    opts.mem_quota = 64 << 10;
    opts.seed = prm.seed;
    opts.watchdog.heartbeat = &heartbeat;
    if (ps.engine == EngineKind::Real) {
      opts.watchdog.stall_deadline_ms = 10'000;
    } else {
      opts.watchdog.virtual_deadline_ns = 120ull * 1'000'000'000;
    }
    if (faulting) opts.fault_plan = &plan;
    if (recording) {
      opts.record_path = *record_dir + std::string("/serve-") + ps.tag + ".dfthlog";
      opts.record_tag = std::string("serve-") + ps.tag;
    } else if (replaying) {
      opts.replay_path = *replay_dir + std::string("/serve-") + ps.tag + ".dfthlog";
    }

    PassResult pr;
    pr.tag = ps.tag;
    pr.baseline_live = baseline;

    serve::ServerConfig cfg;
    cfg.ingress_capacity = 64;
    cfg.mem_budget = static_cast<std::size_t>(baseline) +
                     (static_cast<std::size_t>(*budget_kb) << 10);
    cfg.max_inflight = 16;
    cfg.shed_priority_floor = 2;  // barnes/fmm/volrend shed first
    cfg.poll_ns = 100'000;
    cfg.heartbeat = &heartbeat;
    // Per-request deadlines: generous against the tiny problem sizes, so
    // expirations come from genuine overload, not the baseline cost.
    std::vector<serve::EndpointSpec> eps = make_endpoints(inputs);
    for (serve::EndpointSpec& e : eps) e.deadline_ns = 80'000'000;

    std::vector<serve::Request> arena(static_cast<std::size_t>(prm.requests));

    pr.stats = run(opts, [&] {
      serve::Server server(cfg, std::move(eps));
      soak_body(server, arena, prm, &pr);
    });

    // Exactly-once termination: every request must be terminal.
    for (const serve::Request& r : arena) {
      if (r.outcome == serve::Outcome::kPending) {
        std::fprintf(stderr, "serve_soak[%s]: request %llu never terminated\n",
                     ps.tag, static_cast<unsigned long long>(r.id));
        ++failures;
      }
      if (r.bytes_live.load() != 0) {
        std::fprintf(stderr,
                     "serve_soak[%s]: request %llu leaked %lld tracked bytes\n",
                     ps.tag, static_cast<unsigned long long>(r.id),
                     static_cast<long long>(r.bytes_live.load()));
        ++failures;
      }
    }
    const std::uint64_t accounted = pr.completed + pr.rejected + pr.expired;
    if (accounted != pr.requests) {
      std::fprintf(stderr,
                   "serve_soak[%s]: %llu of %llu requests accounted for\n",
                   ps.tag, static_cast<unsigned long long>(accounted),
                   static_cast<unsigned long long>(pr.requests));
      ++failures;
    }
    if (pr.report.peak_live_bytes >
        static_cast<std::int64_t>(cfg.mem_budget)) {
      std::fprintf(stderr,
                   "serve_soak[%s]: peak tracked heap %lld exceeded the "
                   "admission budget %zu\n",
                   ps.tag, static_cast<long long>(pr.report.peak_live_bytes),
                   cfg.mem_budget);
      ++failures;
    }

    const double span_s = static_cast<double>(pr.wall_span_ns) / 1e9;
    std::printf(
        "%-4s %5llu req  %6.2f rps  done=%-5llu rej=%-4llu exp=%-4llu "
        "retries=%-4llu tiers=%llu peak-rss=%lld faults=%llu expired-disp=%llu\n",
        ps.tag, static_cast<unsigned long long>(pr.requests),
        span_s > 0 ? static_cast<double>(pr.requests) / span_s : 0.0,
        static_cast<unsigned long long>(pr.completed),
        static_cast<unsigned long long>(pr.rejected),
        static_cast<unsigned long long>(pr.expired),
        static_cast<unsigned long long>(pr.retries),
        static_cast<unsigned long long>(pr.report.tier_transitions),
        static_cast<long long>(pr.report.peak_live_bytes),
        static_cast<unsigned long long>(pr.stats.faults_injected),
        static_cast<unsigned long long>(pr.stats.deadline_expirations));
    for (const serve::EndpointReport& er : pr.report.endpoints) {
      std::printf(
          "     %-8s done=%-5llu q-full=%-4llu shed=%-4llu adm=%-4llu "
          "exp-q=%-3llu exp-run=%-3llu p50=%.2fms p99=%.2fms p999=%.2fms\n",
          er.name.c_str(), static_cast<unsigned long long>(er.completed),
          static_cast<unsigned long long>(er.rejected_queue),
          static_cast<unsigned long long>(er.rejected_shed),
          static_cast<unsigned long long>(er.rejected_admission),
          static_cast<unsigned long long>(er.expired_queue),
          static_cast<unsigned long long>(er.expired_running),
          static_cast<double>(er.latency.percentile(0.50)) / 1e6,
          static_cast<double>(er.latency.percentile(0.99)) / 1e6,
          static_cast<double>(er.latency.percentile(0.999)) / 1e6);
    }
    if (recording || replaying) {
      std::printf("DFTH-SIG serve/%s %s\n", ps.tag,
                  replay::determinism_signature(pr.stats).c_str());
    }
    std::fflush(stdout);
    common.record(std::string("serve (") + ps.tag + ")", opts, pr.stats);
    results.push_back(std::move(pr));
  }

  // Rich JSON (the bench::Common schema has no serve fields): per-pass
  // totals, per-endpoint percentiles and the headroom time series.
  if (!common.json->empty()) {
    std::FILE* f = std::fopen(common.json->c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"bench\": \"serve_soak\", \"passes\": [");
      for (std::size_t pi = 0; pi < results.size(); ++pi) {
        const PassResult& pr = results[pi];
        const double span_s = static_cast<double>(pr.wall_span_ns) / 1e9;
        std::fprintf(
            f,
            "%s\n{\"pass\": \"%s\", \"requests\": %llu, "
            "\"throughput_rps\": %.3f, \"completed\": %llu, "
            "\"rejected\": %llu, \"expired\": %llu, \"retries\": %llu, "
            "\"rejected_queue\": %llu, \"rejected_shed\": %llu, "
            "\"rejected_admission\": %llu, \"expired_queue\": %llu, "
            "\"expired_running\": %llu, \"tier_transitions\": %llu, "
            "\"peak_inflight\": %llu, \"peak_depth\": %llu, "
            "\"peak_live_bytes\": %lld, \"baseline_live_bytes\": %lld, "
            "\"admission_usable\": %zu, \"deadline_expirations\": %llu, "
            "\"faults_injected\": %llu, \"elapsed_us\": %.3f, ",
            pi == 0 ? "" : ",", pr.tag.c_str(),
            static_cast<unsigned long long>(pr.requests),
            span_s > 0 ? static_cast<double>(pr.requests) / span_s : 0.0,
            static_cast<unsigned long long>(pr.completed),
            static_cast<unsigned long long>(pr.rejected),
            static_cast<unsigned long long>(pr.expired),
            static_cast<unsigned long long>(pr.retries),
            static_cast<unsigned long long>(pr.report.rejected_queue),
            static_cast<unsigned long long>(pr.report.rejected_shed),
            static_cast<unsigned long long>(pr.report.rejected_admission),
            static_cast<unsigned long long>(pr.report.expired_queue),
            static_cast<unsigned long long>(pr.report.expired_running),
            static_cast<unsigned long long>(pr.report.tier_transitions),
            static_cast<unsigned long long>(pr.report.peak_inflight),
            static_cast<unsigned long long>(pr.report.peak_depth),
            static_cast<long long>(pr.report.peak_live_bytes),
            static_cast<long long>(pr.baseline_live),
            pr.report.admission_usable,
            static_cast<unsigned long long>(pr.stats.deadline_expirations),
            static_cast<unsigned long long>(pr.stats.faults_injected),
            pr.stats.elapsed_us);
        std::fprintf(f, "\"endpoints\": [");
        for (std::size_t ei = 0; ei < pr.report.endpoints.size(); ++ei) {
          const serve::EndpointReport& er = pr.report.endpoints[ei];
          std::fprintf(
              f,
              "%s{\"name\": \"%s\", \"completed\": %llu, "
              "\"rejected_queue\": %llu, \"rejected_shed\": %llu, "
              "\"rejected_admission\": %llu, \"expired_queue\": %llu, "
              "\"expired_running\": %llu, \"p50_ns\": %llu, "
              "\"p99_ns\": %llu, \"p999_ns\": %llu}",
              ei == 0 ? "" : ", ", er.name.c_str(),
              static_cast<unsigned long long>(er.completed),
              static_cast<unsigned long long>(er.rejected_queue),
              static_cast<unsigned long long>(er.rejected_shed),
              static_cast<unsigned long long>(er.rejected_admission),
              static_cast<unsigned long long>(er.expired_queue),
              static_cast<unsigned long long>(er.expired_running),
              static_cast<unsigned long long>(er.latency.percentile(0.50)),
              static_cast<unsigned long long>(er.latency.percentile(0.99)),
              static_cast<unsigned long long>(er.latency.percentile(0.999)));
        }
        std::fprintf(f, "], \"headroom\": [");
        for (std::size_t hi = 0; hi < pr.report.headroom.size(); ++hi) {
          const serve::HeadroomSample& h = pr.report.headroom[hi];
          std::fprintf(f,
                       "%s{\"t_ns\": %llu, \"headroom\": %llu, "
                       "\"depth\": %u, \"tier\": %u}",
                       hi == 0 ? "" : ", ",
                       static_cast<unsigned long long>(h.t_ns),
                       static_cast<unsigned long long>(h.headroom_bytes),
                       h.depth, h.tier);
        }
        std::fprintf(f, "]}");
      }
      std::fprintf(f, "\n]}\n");
      std::fclose(f);
      std::printf("(json written to %s)\n", common.json->c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", common.json->c_str());
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "serve_soak: %d invariant violation(s)\n", failures);
    return 1;
  }
  std::printf("serve_soak: all requests terminated exactly once\n");
  return 0;
}
