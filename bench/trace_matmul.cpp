// Acceptance driver for the observability layer: run matmul with a Tracer
// installed and export everything the layer produces — Chrome trace JSON
// (one lane per worker, loadable in Perfetto / chrome://tracing), the
// time-series CSV (the Figure 1 / Figure 9 curves), and the RunStats-
// superset JSON blob.
//
// Runs FIFO and AsyncDF under the simulator so the two CSVs reproduce the
// paper's headline contrast (FIFO's live-thread peak far above AsyncDF's),
// then one RealEngine run to exercise the steady-clock path.
#include <algorithm>
#include <cstdio>

#include "matmul_runner.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "resil/faults.h"

int main(int argc, char** argv) {
  using namespace dfth;
  bench::Common common("trace_matmul",
                       "observability demo: matmul -> trace.json/csv/stats");
  auto* size = common.cli.int_opt("n", 256, "matrix dimension (power of two)");
  auto* procs = common.cli.int_opt("procs", 4, "processor count");
  auto* out = common.cli.str_opt("out", "trace", "output file prefix");
  auto* real_flag = common.cli.flag("real", true, "also run the RealEngine leg");
  if (!common.parse(argc, argv)) return 0;
  const std::size_t n = *common.full ? 1024 : static_cast<std::size_t>(*size);
  const int p = static_cast<int>(*procs);
  const auto seed = static_cast<std::uint64_t>(*common.seed);

  bench::MatmulInput input(n);

  auto traced = [&](const char* tag, RuntimeOptions o) {
    obs::Tracer tracer;
    o.tracer = &tracer;
    const RunStats stats = run(
        o, [&] { apps::matmul_threaded(input.a, input.b, input.c, input.cfg); });
    common.record(tag, o, stats);

    const std::string base = *out + "_" + tag;
    obs::write_chrome_trace(tracer, stats, base + ".json");
    obs::write_timeseries_csv(tracer, base + ".csv");
    obs::write_stats_json(stats, &tracer, base + "_stats.json");

    std::int64_t peak_live = 0;
    for (const obs::Sample& s : tracer.samples()) {
      peak_live = std::max(peak_live, s.live_threads);
    }
    std::printf(
        "%-12s %8.3f s  %5d lanes  %8zu events (%llu dropped)  "
        "peak live %lld\n",
        tag, stats.elapsed_us / 1e6, tracer.lanes(), tracer.event_count(),
        static_cast<unsigned long long>(tracer.dropped()),
        static_cast<long long>(peak_live));
    return peak_live;
  };

  const std::int64_t fifo_peak =
      traced("sim_fifo", bench::sim_opts(SchedKind::Fifo, p, 8 << 10, seed));
  const std::int64_t adf_peak =
      traced("sim_asyncdf", bench::sim_opts(SchedKind::AsyncDf, p, 8 << 10, seed));
  std::printf("live-thread peaks: FIFO %lld vs AsyncDF %lld (Figure 1 shape: "
              "FIFO >> AsyncDF)\n",
              static_cast<long long>(fifo_peak),
              static_cast<long long>(adf_peak));

  if (*real_flag) {
    RuntimeOptions o;
    o.engine = EngineKind::Real;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = p;
    o.default_stack_size = 64 << 10;
    o.seed = seed;
    traced("real_asyncdf", o);
  }

  common.write_json();

  // No plan, no evaluations: none of the runs above set fault_plan, so a
  // disarmed probe must never have reached the injector.
  const auto evals = resil::FaultInjector::instance().evaluations_total();
  if (evals != 0) {
    std::fprintf(stderr,
                 "fault probes reached the injector with no plan armed: %llu "
                 "site evaluations\n",
                 static_cast<unsigned long long>(evals));
    return 1;
  }
  std::puts("fault probes: no plan armed, 0 site evaluations");

  std::printf("(inspect with: dfth-trace summary %s_sim_fifo.json)\n",
              out->c_str());
  return 0;
}
