#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace dfth::obs {
namespace {

/// RAII stdio file — exporters may run from atexit-ish paths, keep it simple.
struct File {
  explicit File(const std::string& path) : f(std::fopen(path.c_str(), "w")) {}
  ~File() {
    if (f) std::fclose(f);
  }
  std::FILE* f = nullptr;
};

double us(std::uint64_t ts_ns) { return static_cast<double>(ts_ns) / 1000.0; }

void chrome_event_prefix(std::FILE* f, bool& first) {
  std::fprintf(f, first ? "\n" : ",\n");
  first = false;
}

/// Minimal string escape for spawn-site stacks (file paths may in principle
/// carry quotes or backslashes; nothing else in our output can).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string to_json(const Breakdown& b) {
  std::string out = "{";
  char buf[64];
  for (int i = 0; i < Breakdown::kNumCategories; ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s_us\": %.3f", i ? ", " : "",
                  Breakdown::category_name(i), b.category(i));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, ", \"total_us\": %.3f}", b.total_us());
  out += buf;
  return out;
}

std::string to_json(const ProfileStats& p) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"enabled\": %s, \"work_ns\": %" PRIu64
                ", \"span_ns\": %" PRIu64 ", \"burdened_span_ns\": %" PRIu64
                ", \"overhead_ns\": %" PRIu64 ", \"fibers\": %" PRIu64
                ", \"fork_depth\": %" PRIu32 ", \"span_segments\": %" PRIu32
                ", \"parallelism\": %.3f}",
                p.enabled ? "true" : "false", p.work_ns, p.span_ns,
                p.burdened_span_ns, p.overhead_ns, p.fibers, p.fork_depth,
                p.span_segments, p.parallelism());
  return buf;
}

std::string to_json(const RunStats& s) {
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "{\"engine\": \"%s\", \"scheduler\": \"%s\", \"nprocs\": %d, "
      "\"threads_created\": %" PRIu64 ", \"dummy_threads\": %" PRIu64
      ", \"max_live_threads\": %" PRId64 ", \"dispatches\": %" PRIu64
      ", \"quota_preemptions\": %" PRIu64 ", \"steals\": %" PRIu64
      ", \"oom_preemptions\": %" PRIu64 ", \"inline_runs\": %" PRIu64
      ", \"sync_timeouts\": %" PRIu64 ", \"faults_injected\": %" PRIu64
      ", \"faults_recovered\": %" PRIu64
      ", \"sched_lock_sections\": %" PRIu64
      ", \"global_lock_sections\": %" PRIu64
      ", \"heap_peak\": %" PRId64 ", \"stack_peak\": %" PRId64
      ", \"stacks_fresh\": %" PRIu64 ", \"stacks_reused\": %" PRIu64
      ", \"stack_high_water\": %" PRId64
      ", \"elapsed_us\": %.3f, \"cache_hits\": %" PRIu64
      ", \"cache_misses\": %" PRIu64 ", \"breakdown\": ",
      to_string(s.engine), to_string(s.sched), s.nprocs, s.threads_created,
      s.dummy_threads, s.max_live_threads, s.dispatches, s.quota_preemptions,
      s.steals, s.oom_preemptions, s.inline_runs, s.sync_timeouts,
      s.faults_injected, s.faults_recovered, s.sched_lock_sections,
      s.global_lock_sections,
      s.heap_peak, s.stack_peak, s.stacks_fresh, s.stacks_reused,
      s.stack_high_water, s.elapsed_us, s.cache_hits, s.cache_misses);
  return std::string(buf) + to_json(s.breakdown) +
         ", \"profile\": " + to_json(s.profile) + "}";
}

bool write_stats_json(const RunStats& stats, const Tracer* tr,
                      const std::string& path) {
  File out(path);
  if (!out.f) return false;
  std::fprintf(out.f, "{\n\"stats\": %s", to_json(stats).c_str());
  if (tr) {
    std::fprintf(out.f, ",\n\"counters\": {");
    for (int c = 0; c < kNumCounters; ++c) {
      std::fprintf(out.f, "%s\"%s\": %" PRIu64, c ? ", " : "",
                   to_string(static_cast<Counter>(c)),
                   tr->counter(static_cast<Counter>(c)));
    }
    std::fprintf(out.f, "},\n\"histograms\": {");
    for (int h = 0; h < kNumHists; ++h) {
      const auto hist = static_cast<Hist>(h);
      const HistSnapshot& s = tr->hist(hist);
      std::fprintf(out.f,
                   "%s\"%s\": {\"count\": %" PRIu64 ", \"p50_ns\": %" PRIu64
                   ", \"p99_ns\": %" PRIu64 ", \"p999_ns\": %" PRIu64
                   ", \"max_ns\": %" PRIu64 "}",
                   h ? ", " : "", to_string(hist), s.count(),
                   s.percentile(0.50), s.percentile(0.99), s.percentile(0.999),
                   s.max_bound());
    }
    std::fprintf(out.f,
                 "},\n\"trace\": {\"lanes\": %d, \"events\": %zu, "
                 "\"dropped\": %" PRIu64 ", \"samples\": %zu}",
                 tr->lanes(), tr->event_count(), tr->dropped(),
                 tr->samples().size());
  }
  std::fprintf(out.f, "\n}\n");
  return true;
}

bool write_chrome_trace(const Tracer& tr, const RunStats& stats,
                        const std::string& path) {
  File out(path);
  if (!out.f) return false;
  std::FILE* f = out.f;
  bool first = true;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");

  // Ring-overflow marker: how many events the lanes dropped. Viewers ignore
  // the unknown metadata name; dfth-trace surfaces it in its summary so an
  // overflowed export is never mistaken for a complete one.
  chrome_event_prefix(f, first);
  std::fprintf(f,
               "{\"name\": \"dfth_dropped\", \"ph\": \"M\", \"pid\": 0, "
               "\"tid\": 0, \"args\": {\"dropped\": %" PRIu64 "}}",
               tr.dropped());

  // Lane metadata: one Chrome "thread" per worker/vproc.
  for (int lane = 0; lane < tr.lanes(); ++lane) {
    chrome_event_prefix(f, first);
    const bool external = lane == tr.lanes() - 1 && lane == stats.nprocs;
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s %d\"}}",
                 lane, external ? "external" : "worker", lane);
  }

  // First dispatch per thread — the flow-arrow targets.
  struct FirstDispatch {
    std::uint64_t ts_ns;
    int lane;
  };
  std::unordered_map<std::uint64_t, FirstDispatch> first_dispatch;
  for (int lane = 0; lane < tr.lanes(); ++lane) {
    for (const TraceEvent& ev : tr.lane_events(lane)) {
      if (ev.kind == EvKind::Dispatch && !first_dispatch.count(ev.tid)) {
        first_dispatch[ev.tid] = {ev.ts_ns, lane};
      }
    }
  }

  const std::uint64_t run_end_ns =
      static_cast<std::uint64_t>(stats.elapsed_us * 1000.0);
  std::uint64_t next_flow_id = 1;

  for (int lane = 0; lane < tr.lanes(); ++lane) {
    const auto events = tr.lane_events(lane);
    // Open dispatch slice on this lane, if any.
    bool open = false;
    std::uint64_t open_tid = 0, open_ts = 0;
    std::uint64_t lane_end = run_end_ns;
    if (!events.empty()) lane_end = std::max(lane_end, events.back().ts_ns);

    auto close_slice = [&](std::uint64_t end_ns) {
      chrome_event_prefix(f, first);
      std::fprintf(f,
                   "{\"name\": \"T%" PRIu64
                   "\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"thread\": %" PRIu64
                   "}}",
                   open_tid, lane, us(open_ts),
                   us(end_ns >= open_ts ? end_ns - open_ts : 0), open_tid);
      open = false;
    };

    for (const TraceEvent& ev : events) {
      switch (ev.kind) {
        case EvKind::Dispatch:
          if (open) close_slice(ev.ts_ns);
          open = true;
          open_tid = ev.tid;
          open_ts = ev.ts_ns;
          break;
        case EvKind::Preempt:
        case EvKind::Block:
        case EvKind::Exit:
          if (open && ev.tid == open_tid) close_slice(ev.ts_ns);
          break;
        case EvKind::Fork:
        case EvKind::DummySpawn: {
          // Flow arrow fork → child's first dispatch.
          auto it = first_dispatch.find(ev.arg);
          if (it != first_dispatch.end() && it->second.ts_ns >= ev.ts_ns) {
            const std::uint64_t id = next_flow_id++;
            chrome_event_prefix(f, first);
            std::fprintf(f,
                         "{\"name\": \"fork\", \"cat\": \"fork\", \"ph\": "
                         "\"s\", \"id\": %" PRIu64
                         ", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}",
                         id, lane, us(ev.ts_ns));
            chrome_event_prefix(f, first);
            std::fprintf(f,
                         "{\"name\": \"fork\", \"cat\": \"fork\", \"ph\": "
                         "\"f\", \"bp\": \"e\", \"id\": %" PRIu64
                         ", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}",
                         id, it->second.lane, us(it->second.ts_ns));
          }
          break;
        }
        default:
          break;
      }
      // Instants for the notable point events (skip the slice machinery ones).
      switch (ev.kind) {
        case EvKind::QuotaExhaust:
        case EvKind::Steal:
        case EvKind::StackFresh:
        case EvKind::StackReuse:
        case EvKind::Alloc:
        case EvKind::Free:
          chrome_event_prefix(f, first);
          std::fprintf(f,
                       "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
                       "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": "
                       "{\"thread\": %" PRIu64 ", \"arg\": %" PRIu64 "}}",
                       to_string(ev.kind), lane, us(ev.ts_ns), ev.tid, ev.arg);
          break;
        default:
          break;
      }
    }
    if (open) close_slice(lane_end);
  }

  // Counter tracks from the time-series samples (Fig 1 / Fig 9 curves).
  for (const Sample& s : tr.samples()) {
    chrome_event_prefix(f, first);
    std::fprintf(f,
                 "{\"name\": \"threads\", \"ph\": \"C\", \"pid\": 0, \"tid\": "
                 "0, \"ts\": %.3f, \"args\": {\"live\": %" PRId64
                 ", \"ready\": %" PRId64 "}}",
                 us(s.ts_ns), s.live_threads, s.ready);
    chrome_event_prefix(f, first);
    std::fprintf(f,
                 "{\"name\": \"footprint\", \"ph\": \"C\", \"pid\": 0, "
                 "\"tid\": 0, \"ts\": %.3f, \"args\": {\"heap\": %" PRId64
                 ", \"stack\": %" PRId64 "}}",
                 us(s.ts_ns), s.heap_bytes, s.stack_bytes);
  }

  std::fprintf(f, "\n]}\n");
  return true;
}

bool write_profile_json(const std::string& label, const RunStats& stats,
                        const Profiler* prof,
                        const std::vector<ProfSweepRow>& sweep,
                        const std::string& path) {
  File out(path);
  if (!out.f) return false;
  std::FILE* f = out.f;
  std::fprintf(f, "{\n\"label\": \"%s\",\n\"profile\": %s,\n",
               json_escape(label).c_str(),
               to_json(stats.profile).c_str());
  std::fprintf(f, "\"elapsed_us\": %.3f,\n\"nprocs\": %d,\n",
               prof ? prof->elapsed_us() : stats.elapsed_us,
               prof ? prof->nprocs() : stats.nprocs);
  std::fprintf(f, "\"sweep\": [");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ProfSweepRow& r = sweep[i];
    std::fprintf(f,
                 "%s\n{\"p\": %d, \"predicted_lo_us\": %.3f, "
                 "\"predicted_hi_us\": %.3f, \"measured_us\": %.3f}",
                 i ? "," : "", r.p, r.predicted_lo_us, r.predicted_hi_us,
                 r.measured_us);
  }
  std::fprintf(f, "\n],\n\"critical_path\": [");
  if (prof) {
    const std::vector<CritSegment> crit = prof->critical_path();
    for (std::size_t i = 0; i < crit.size(); ++i) {
      std::fprintf(f, "%s\n{\"stack\": \"%s\", \"ns\": %" PRIu64 "}",
                   i ? "," : "", json_escape(crit[i].stack).c_str(),
                   crit[i].ns);
    }
  }
  std::fprintf(f, "\n],\n\"collapsed\": [");
  if (prof) {
    const std::vector<CollapsedLine> lines = prof->collapsed();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::fprintf(f, "%s\n{\"stack\": \"%s\", \"work_ns\": %" PRIu64 "}",
                   i ? "," : "", json_escape(lines[i].stack).c_str(),
                   lines[i].work_ns);
    }
  }
  std::fprintf(f, "\n]\n}\n");
  return true;
}

bool write_collapsed_stacks(const Profiler& prof, const std::string& path) {
  File out(path);
  if (!out.f) return false;
  for (const CollapsedLine& line : prof.collapsed()) {
    std::fprintf(out.f, "%s %" PRIu64 "\n", line.stack.c_str(), line.work_ns);
  }
  return true;
}

bool write_timeseries_csv(const Tracer& tr, const std::string& path) {
  File out(path);
  if (!out.f) return false;
  std::fprintf(out.f, "ts_us,live_threads,heap_bytes,stack_bytes,ready\n");
  for (const Sample& s : tr.samples()) {
    std::fprintf(out.f, "%.3f,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 "\n",
                 us(s.ts_ns), s.live_threads, s.heap_bytes, s.stack_bytes,
                 s.ready);
  }
  return true;
}

}  // namespace dfth::obs
