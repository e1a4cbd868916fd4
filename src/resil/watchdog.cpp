#include "resil/watchdog.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "core/asyncdf_sched.h"
#include "core/scheduler.h"
#include "obs/trace.h"
#include "resil/faults.h"
#include "threads/tcb.h"

namespace dfth::resil {
namespace {

// How many trailing trace events the dump shows per run. The rings keep the
// *earliest* events (see obs/trace.h), so "tail" here means the latest of
// what survived — still the best available picture of the run's shape.
constexpr std::size_t kTraceTail = 64;

void append(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string* out, const char* fmt, ...) {
  char line[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(line, sizeof line, fmt, ap);
  va_end(ap);
  *out += line;
}

void append_threads(std::string* out, const std::vector<Tcb*>& tcbs) {
  append(out, "-- threads (%zu total) --\n", tcbs.size());
  for (const Tcb* t : tcbs) {
    if (!t) continue;
    const ThreadState st = t->state.load(std::memory_order_relaxed);
    append(out,
           "  t%" PRIu64 " state=%s%s%s%s dispatches=%" PRIu64
           " quota=%lld held-locks=%zu",
           t->id, to_string(st), t->is_main ? " main" : "",
           t->is_dummy ? " dummy" : "", t->attr.bound ? " bound" : "",
           t->dispatches, static_cast<long long>(t->quota),
           t->held_locks.size());
    for (const void* lock : t->held_locks) append(out, " %p", lock);
    append(out, "\n");
  }
}

void append_order_list(std::string* out, Scheduler* sched) {
  auto* adf = dynamic_cast<AsyncDfScheduler*>(sched->underlying());
  if (!adf) {
    append(out, "-- order-list: n/a (scheduler %s keeps no serial order) --\n",
           to_string(sched->kind()));
    return;
  }
  append(out, "-- order-list (AsyncDF serial order, leftmost first) --\n");
  for (int prio = kNumPriorities - 1; prio >= 0; --prio) {
    const OrderList& list = adf->order_list(prio);
    if (list.empty()) continue;
    append(out, "  prio %d:", prio);
    for (const OrderNode* node = list.front();
         node != nullptr && node != list.end_sentinel(); node = node->next) {
      const auto* t = static_cast<const Tcb*>(node->owner);
      if (!t) {
        append(out, " <?>");
        continue;
      }
      append(out, " t%" PRIu64 "(%s)", t->id,
             to_string(t->state.load(std::memory_order_relaxed)));
    }
    append(out, "\n");
  }
}

void append_trace_tail(std::string* out, obs::Tracer* tracer) {
  append(out, "-- trace-ring tail --\n");
  if (!tracer) {
    append(out, "  (no trace session installed)\n");
    return;
  }
  const std::vector<obs::TraceEvent> events = tracer->merged();
  if (events.empty()) {
    append(out, "  (no events recorded)\n");
    return;
  }
  const std::size_t begin =
      events.size() > kTraceTail ? events.size() - kTraceTail : 0;
  if (begin > 0) append(out, "  ... %zu earlier events elided ...\n", begin);
  for (std::size_t i = begin; i < events.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    append(out, "  %12" PRIu64 " ns lane %u %-13s t%" PRIu64 " arg=%" PRIu64 "\n",
           ev.ts_ns, ev.lane, to_string(ev.kind), ev.tid, ev.arg);
  }
}

// -- full-fidelity sections (file dump only; stderr keeps the tail) ----------

/// The trace session's live counters and histograms: they belong to it.
void append_counts(std::string* out, obs::Tracer* tracer) {
  const char* none = "  (no trace session installed)\n";
  append(out, "-- counters (live values at abort) --\n");
  if (!tracer) append(out, none);
  for (int c = 0; tracer && c < obs::kNumCounters; ++c) {
    const auto counter = static_cast<obs::Counter>(c);
    const std::uint64_t v = tracer->live_counter(counter);
    if (v == 0) continue;
    append(out, "  %-16s %" PRIu64 "\n", obs::to_string(counter), v);
  }
  append(out, "-- histograms (live at abort) --\n");
  if (!tracer) {
    append(out, none);
    return;
  }
  for (int h = 0; h < obs::kNumHists; ++h) {
    const auto hist = static_cast<obs::Hist>(h);
    const obs::HistSnapshot s = tracer->live_hist(hist);
    append(out,
           "  %-16s count=%" PRIu64 " p50<=%" PRIu64 " p99<=%" PRIu64
           " p999<=%" PRIu64 " max<=%" PRIu64 "\n",
           obs::to_string(hist), s.count(), s.percentile(0.50),
           s.percentile(0.99), s.percentile(0.999), s.max_bound());
  }
}

void append_samples(std::string* out, obs::Tracer* tracer) {
  append(out, "-- time series (ts live heap stack ready) --\n");
  if (!tracer) {
    append(out, "  (no trace session installed)\n");
    return;
  }
  // SimEngine hands its samples to the tracer only at a clean run end, so
  // an aborted Sim run may legitimately have none here.
  const std::vector<obs::Sample>& samples = tracer->samples();
  if (samples.empty()) {
    append(out, "  (no samples recorded before abort)\n");
    return;
  }
  for (const obs::Sample& s : samples) {
    append(out,
           "  %12" PRIu64 " ns live=%lld heap=%lld stack=%lld ready=%lld\n",
           s.ts_ns, static_cast<long long>(s.live_threads),
           static_cast<long long>(s.heap_bytes),
           static_cast<long long>(s.stack_bytes),
           static_cast<long long>(s.ready));
  }
}

void append_full_rings(std::string* out, obs::Tracer* tracer) {
  append(out, "-- trace rings (full contents, per lane) --\n");
  if (!tracer) {
    append(out, "  (no trace session installed)\n");
    return;
  }
  for (int lane = 0; lane < tracer->lanes(); ++lane) {
    const std::vector<obs::TraceEvent> events = tracer->lane_events(lane);
    append(out, "  lane %d: %zu events\n", lane, events.size());
    for (const obs::TraceEvent& ev : events) {
      append(out, "    %12" PRIu64 " ns %-13s t%" PRIu64 " arg=%" PRIu64 "\n",
             ev.ts_ns, to_string(ev.kind), ev.tid, ev.arg);
    }
  }
  append(out, "  dropped (all lanes): %" PRIu64 "\n", tracer->dropped());
}

}  // namespace

void dump_flight_recorder(const FlightInfo& info, const WatchdogConfig& cfg) {
  std::string out;
  out.reserve(4096);
  append(&out, "==== DFTH FLIGHT RECORDER ====\n");
  append(&out, "reason: %s\n", info.reason);
  append(&out, "engine: %s  live-threads: %lld  scheduler-state: %s\n",
         info.engine, static_cast<long long>(info.live_threads),
         info.sched_state_consistent ? "consistent"
                                     : "unlocked (best-effort snapshot)");
  append(&out, "-- lanes (current fiber per worker/vproc) --\n");
  for (const FlightLane& lane : info.lanes) {
    if (lane.running) {
      append(&out, "  lane %d: t%" PRIu64 " (%s)\n", lane.lane,
             lane.running->id,
             to_string(lane.running->state.load(std::memory_order_relaxed)));
    } else {
      append(&out, "  lane %d: idle\n", lane.lane);
    }
  }
  if (info.all_tcbs) append_threads(&out, *info.all_tcbs);
  if (info.sched) append_order_list(&out, info.sched);
  append_trace_tail(&out, info.tracer);
  append(&out, "-- fault injection --\n");
  if (FaultInjector::instance().armed()) {
    FaultInjector::instance().append_summary(&out);
  } else {
    append(&out, "  (injector disarmed)\n");
  }
  append(&out, "-- record/replay --\n");
  if (!info.record_log.empty()) {
    append(&out, "  in-flight schedule log flushed to: %s\n",
           info.record_log.c_str());
    append(&out, "  reproduce with: %s\n", info.replay_cmd.c_str());
  } else if (!info.replay_log.empty()) {
    append(&out, "  this run was replaying: %s\n", info.replay_log.c_str());
    if (!info.replay_position.empty()) {
      append(&out, "  %s\n", info.replay_position.c_str());
    }
  } else {
    append(&out,
           "  (no recording session — set RuntimeOptions::record_path to "
           "make the next failure replayable)\n");
  }
  std::string tail = out;
  append(&tail, "==== END FLIGHT RECORDER ====\n");

  std::fputs(tail.c_str(), stderr);
  std::fflush(stderr);
  if (!cfg.dump_path.empty()) {
    // The file gets the full-fidelity dump: every lane's complete ring (not
    // just the merged tail), the trace session's live counters and
    // histogram summaries and the sampled time series — everything the
    // abort would otherwise lose.
    append_counts(&out, info.tracer);
    append_samples(&out, info.tracer);
    append_full_rings(&out, info.tracer);
    append(&out, "==== END FLIGHT RECORDER ====\n");
    if (std::FILE* f = std::fopen(cfg.dump_path.c_str(), "w")) {
      std::fputs(out.c_str(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "watchdog: could not write dump to %s\n",
                   cfg.dump_path.c_str());
    }
  }
}

}  // namespace dfth::resil
