// Exporters for trace sessions and run statistics.
//
//  * write_chrome_trace — Chrome trace_event JSON ("X" slices, one lane per
//    worker/vproc, "s"/"f" flow arrows fork → first dispatch, "i" instants,
//    "C" counter tracks from the time-series samples). Loads directly in
//    Perfetto / chrome://tracing; tools/dfth-trace parses the same file.
//  * write_timeseries_csv — the Figure 1 / Figure 9 curves (live threads,
//    heap and stack footprint, ready-queue depth over time).
//  * write_stats_json — RunStats superset: everything RunStats carries plus
//    the trace session's counters, histogram percentiles and trace totals.
//    The ready-wait and steal-latency histograms need a pick-time clock,
//    which only SimEngine has: a RealEngine run reports them with count 0.
//  * write_profile_json — the work/span profiler report: ProfileStats, the
//    Brent what-if sweep (predicted lo/hi vs measured T_p), critical-path
//    attribution and collapsed spawn-site stacks. tools/dfth-prof parses it.
//
// All writers emit one record per line with a fixed key order so the CLI can
// parse them with plain string scanning — no JSON library in the toolchain.
#pragma once

#include <string>
#include <vector>

#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/run_stats.h"

namespace dfth::obs {

/// JSON object literal for one Breakdown, keys from Breakdown::category_name.
std::string to_json(const Breakdown& b);

/// JSON object literal for one ProfileStats (all zeros when !enabled).
std::string to_json(const ProfileStats& p);

/// JSON object literal for one RunStats (embeds breakdown and profile).
std::string to_json(const RunStats& stats);

/// RunStats-superset blob: {"stats": ..., "counters": ..., "trace": ...}.
/// `tr` may be null (stats only). Returns false on I/O failure.
bool write_stats_json(const RunStats& stats, const Tracer* tr,
                      const std::string& path);

/// Chrome trace_event JSON for a finished session. Returns false on I/O
/// failure or if `tr` is null.
bool write_chrome_trace(const Tracer& tr, const RunStats& stats,
                        const std::string& path);

/// Time-series CSV: header "ts_us,live_threads,heap_bytes,stack_bytes,ready".
bool write_timeseries_csv(const Tracer& tr, const std::string& path);

/// One row of the Brent what-if sweep. `measured_us < 0` means "not run".
struct ProfSweepRow {
  int p = 0;
  double predicted_lo_us = 0;
  double predicted_hi_us = 0;
  double measured_us = -1;
};

/// Profiler report blob: {"label", "profile", "elapsed_us", "nprocs",
/// "sweep", "critical_path", "collapsed"}. `prof` may be null (stats-only
/// record, e.g. from a build without an installed session). Returns false
/// on I/O failure.
bool write_profile_json(const std::string& label, const RunStats& stats,
                        const Profiler* prof,
                        const std::vector<ProfSweepRow>& sweep,
                        const std::string& path);

/// Folded collapsed-stack lines ("stack work_ns", one per spawn-site
/// stack) — the format flamegraph.pl and speedscope load directly.
bool write_collapsed_stacks(const Profiler& prof, const std::string& path);

}  // namespace dfth::obs
