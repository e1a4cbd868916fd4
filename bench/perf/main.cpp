// dfth_perf — wall-clock benchmark harness over the real engine.
//
//   dfth_perf --workload apps|fork-join|sync|serve --seed N [--seconds S]
//             [--traced] [--smoke] [--out-dir DIR]
//
// Prints every metric with its unit, writes <out-dir>/<workload>.result.json
// (and, with --traced, the per-layer and Chrome-trace span files), and exits
// 1 when any output of the measured program was wrong. bench/perf/run.py
// builds this and runs it once per workload.
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "util/cli.h"

#ifndef DFTH_PERF_BUILD_TYPE
#define DFTH_PERF_BUILD_TYPE "unknown"
#endif
#ifndef DFTH_PERF_DEFS
#define DFTH_PERF_DEFS ""
#endif

namespace {

using dfth::perf::Metric;

/// Bumped whenever a workload, a size or a metric definition changes, so
/// results of different benchmark versions are never compared.
constexpr int kBenchVersion = 1;

void put_metrics(std::FILE* f, const char* key, const std::vector<Metric>& ms) {
  std::fprintf(f, ",\n \"%s\": {", key);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": ", i ? "," : "", ms[i].name.c_str());
    if (std::isfinite(ms[i].value)) {
      std::fprintf(f, "%.17g", ms[i].value);
    } else {
      std::fputs("null", f);
    }
    std::fprintf(f, ", \"unit\": \"%s\"}", ms[i].unit.c_str());
  }
  std::fputs("\n }", f);
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("-- %s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dfth::perf;
  dfth::Cli cli("dfth_perf", "wall-clock benchmark of the dfth runtime");
  auto* workload = cli.str_opt("workload", "", "apps | fork-join | sync | serve");
  auto* seed = cli.int_opt("seed", 1, "input seed");
  auto* seconds = cli.double_opt("seconds", 20, "measuring budget, seconds");
  auto* traced = cli.flag("traced", false, "per-layer run: alternate traced reps");
  auto* smoke = cli.flag("smoke", false, "tiny sizes, one rep");
  auto* out_dir = cli.str_opt("out-dir", ".", "where result files go");
  if (!cli.parse(argc, argv)) return 0;

  Ctx ctx;
  ctx.workload = *workload;
  ctx.seed = static_cast<std::uint64_t>(*seed);
  ctx.seconds = *seconds;
  ctx.traced = *traced;
  ctx.smoke = *smoke;
  ctx.nproc = affinity_cpus();
  ctx.out_dir = *out_dir;
  if (ctx.traced) Spans::instance().enable(std::size_t{1} << 20);

  Results res;
  const double steal0_s = host_steal_s();
  const std::uint64_t t0_ns = clock_ns();
  if (ctx.workload == "apps") {
    run_apps(ctx, res);
  } else if (ctx.workload == "fork-join") {
    run_forkjoin(ctx, res);
  } else if (ctx.workload == "sync") {
    run_sync(ctx, res);
  } else if (ctx.workload == "serve") {
    run_serve(ctx, res);
  } else {
    std::fprintf(stderr, "dfth_perf: unknown --workload '%s'\n", ctx.workload.c_str());
    return 2;
  }
  res.add_info("host_steal_frac", steal_share(steal0_s, host_steal_s(), clock_ns() - t0_ns),
               "ratio");
  if (res.checks == 0) res.errors.push_back("no correctness check ran");
  for (const Metric& m : res.e2e) {
    if (!std::isfinite(m.value)) res.errors.push_back("metric " + m.name + " not measured");
  }
  if (ctx.traced) write_trace_files(ctx, res);

  std::printf("dfth_perf %s seed=%llu p=%d attempted=%llu failed=%llu checks=%llu\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.nproc, static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.checks));
  print_metrics("end to end", res.e2e);
  print_metrics("report", res.info);
  if (ctx.traced) print_metrics("per layer", res.layer);
  for (const std::string& e : res.errors) std::printf("ERROR: %s\n", e.c_str());

  const std::string path = ctx.out_dir + "/" + ctx.workload + ".result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dfth_perf: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench_version\": %d, \"workload\": \"%s\", \"seed\": %llu, "
               "\"seconds\": %.17g, \"traced\": %s, \"smoke\": %s, "
               "\"host_cpus\": %d, \"build_type\": \"%s\", \"defs\": \"%s\",\n"
               " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"checks\": %llu, \"errors\": [",
               kBenchVersion, ctx.workload.c_str(),
               static_cast<unsigned long long>(ctx.seed), ctx.seconds,
               ctx.traced ? "true" : "false", ctx.smoke ? "true" : "false",
               ctx.nproc, DFTH_PERF_BUILD_TYPE, DFTH_PERF_DEFS,
               res.errors.empty() ? "true" : "false",
               static_cast<unsigned long long>(res.attempted),
               static_cast<unsigned long long>(res.failed),
               static_cast<unsigned long long>(res.checks));
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    std::string e;
    for (char c : res.errors[i]) e += (c == '"' || c == '\\') ? '\'' : c;
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::fputs("]", f);
  put_metrics(f, "metrics", res.e2e);
  put_metrics(f, "layers", res.layer);
  put_metrics(f, "report", res.info);
  std::fputs("\n}\n", f);
  std::fclose(f);
  return res.errors.empty() ? 0 : 1;
}
