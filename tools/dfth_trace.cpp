// dfth-trace: offline summaries of the JSON artifacts the runtime writes.
// Every writer emits one record per line with a fixed key order, so this
// tool parses with plain string scanning — the toolchain has no JSON
// library, and none is needed.
//
//   dfth-trace summary trace.json [--top N]
//   dfth-trace --serve BENCH_serve_soak.json
//
// `summary` reads a Chrome-trace file from obs/export.h
// (write_chrome_trace): events by kind, the ring-overflow drop count,
// per-lane occupancy, the dispatch-gap distribution (p50/p99/p999 plus the
// longest gaps — idle stretches between consecutive slices on a lane), the
// largest traced allocations, and the ready-queue / live-thread peaks from
// the counter tracks.
//
// `--serve` reads the bench/serve_soak report (DESIGN.md §12): per pass it
// prints the request outcome breakdown against the exactly-once invariant,
// the server-side rejection reasons, shed-tier activity, the tracked-heap
// peak against the admission budget, the process's max RSS, the
// per-endpoint latency table, and the admission-headroom time series
// folded into a tier-residency summary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

struct Event {
  std::string name;
  char ph = 0;
  int lane = -1;
  double ts_us = 0;
  double dur_us = 0;
  std::int64_t arg = 0;     // args.arg (instants)
  std::int64_t live = -1;   // args.live / args.ready / args.heap (counters)
  std::int64_t ready = -1;
  std::int64_t heap = -1;
};

/// Extracts the value after `"key": ` as a raw token (up to , } or end).
bool raw_value(const std::string& line, const char* key, std::string* out) {
  const std::string pat = std::string("\"") + key + "\": ";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return false;
  auto start = pos + pat.size();
  auto end = start;
  int depth = 0;
  while (end < line.size()) {
    const char c = line[end];
    if (c == '{') ++depth;
    if (depth == 0 && (c == ',' || c == '}')) break;
    if (c == '}') --depth;
    ++end;
  }
  *out = line.substr(start, end - start);
  return true;
}

bool string_value(const std::string& line, const char* key, std::string* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  *out = raw.substr(1, raw.size() - 2);
  return true;
}

bool num_value(const std::string& line, const char* key, double* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  *out = std::atof(raw.c_str());
  return true;
}

bool int_value(const std::string& line, const char* key, std::int64_t* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  *out = std::atoll(raw.c_str());
  return true;
}

bool parse_event(const std::string& line, Event* ev) {
  std::string ph;
  if (!string_value(line, "ph", &ph) || ph.empty()) return false;
  ev->ph = ph[0];
  string_value(line, "name", &ev->name);
  double tid = -1;
  if (num_value(line, "tid", &tid)) ev->lane = static_cast<int>(tid);
  num_value(line, "ts", &ev->ts_us);
  num_value(line, "dur", &ev->dur_us);
  int_value(line, "arg", &ev->arg);
  int_value(line, "live", &ev->live);
  int_value(line, "ready", &ev->ready);
  int_value(line, "heap", &ev->heap);
  return true;
}

struct Gap {
  int lane;
  double start_us;
  double len_us;
};

int summarize(const std::string& path, std::size_t top_n) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dfth-trace: cannot open %s\n", path.c_str());
    return 1;
  }

  std::vector<Event> events;
  std::map<int, std::string> lane_names;
  std::int64_t dropped = -1;
  std::string line;
  while (std::getline(in, line)) {
    Event ev;
    if (!parse_event(line, &ev)) continue;
    if (ev.ph == 'M') {
      if (ev.name == "dfth_dropped") {
        // Ring-overflow marker emitted by write_chrome_trace.
        int_value(line, "dropped", &dropped);
        continue;
      }
      // thread_name metadata: {"args": {"name": "worker 0"}} — the args
      // name is the *second* "name" key; take the last match.
      const auto pos = line.rfind("\"name\": \"");
      if (pos != std::string::npos) {
        const auto start = pos + std::strlen("\"name\": \"");
        const auto end = line.find('"', start);
        lane_names[ev.lane] = line.substr(start, end - start);
      }
      continue;
    }
    events.push_back(std::move(ev));
  }

  // Events by kind.
  std::map<std::string, std::size_t> by_kind;
  double t_end = 0;
  for (const Event& ev : events) {
    if (ev.ph == 'C') continue;
    ++by_kind[ev.name + (ev.ph == 'X' ? " (slice)" : "")];
    t_end = std::max(t_end, ev.ts_us + ev.dur_us);
  }

  std::printf("trace: %s\n", path.c_str());
  std::printf("span: %.1f us, %zu events\n", t_end, events.size());
  if (dropped > 0) {
    std::printf("dropped: %lld events lost to ring overflow — the summary "
                "below is a truncated view\n",
                static_cast<long long>(dropped));
  } else if (dropped == 0) {
    std::printf("dropped: 0 (rings did not overflow)\n");
  }
  std::printf("\n");
  std::printf("events by kind:\n");
  std::map<std::string, std::size_t> slices_by_kind;
  std::size_t total_slices = 0;
  for (const auto& [name, count] : by_kind) {
    if (name.find(" (slice)") != std::string::npos) {
      total_slices += count;
      continue;  // per-thread slices would flood the table; count them once
    }
    std::printf("  %-16s %zu\n", name.c_str(), count);
  }
  std::printf("  %-16s %zu\n\n", "dispatch slices", total_slices);

  // Per-lane occupancy + dispatch gaps.
  std::map<int, std::vector<const Event*>> lane_slices;
  for (const Event& ev : events) {
    if (ev.ph == 'X') lane_slices[ev.lane].push_back(&ev);
  }
  std::vector<Gap> gaps;
  std::printf("lanes:\n");
  for (auto& [lane, slices] : lane_slices) {
    std::sort(slices.begin(), slices.end(),
              [](const Event* a, const Event* b) { return a->ts_us < b->ts_us; });
    double busy = 0, prev_end = -1;
    for (const Event* s : slices) {
      busy += s->dur_us;
      if (prev_end >= 0 && s->ts_us > prev_end) {
        gaps.push_back({lane, prev_end, s->ts_us - prev_end});
      }
      prev_end = std::max(prev_end, s->ts_us + s->dur_us);
    }
    const auto it = lane_names.find(lane);
    std::printf("  %-12s %6zu slices, busy %10.1f us (%5.1f%%)\n",
                it != lane_names.end() ? it->second.c_str()
                                       : std::to_string(lane).c_str(),
                slices.size(), busy, t_end > 0 ? 100.0 * busy / t_end : 0.0);
  }

  // Dispatch-gap distribution: percentiles first (the shape), then the
  // tail (the culprits).
  std::sort(gaps.begin(), gaps.end(),
            [](const Gap& a, const Gap& b) { return a.len_us > b.len_us; });
  if (!gaps.empty()) {
    // gaps is sorted descending; index from the far end for percentiles.
    auto pct = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          static_cast<double>(gaps.size() - 1) * (1.0 - q));
      return gaps[idx].len_us;
    };
    std::printf("\ndispatch gaps: %zu, p50 %.1f us, p99 %.1f us, "
                "p999 %.1f us, max %.1f us\n",
                gaps.size(), pct(0.50), pct(0.99), pct(0.999),
                gaps.front().len_us);
  }
  std::printf("\nlongest dispatch gaps:\n");
  for (std::size_t i = 0; i < std::min(top_n, gaps.size()); ++i) {
    std::printf("  lane %-3d at %12.1f us: %10.1f us idle\n", gaps[i].lane,
                gaps[i].start_us, gaps[i].len_us);
  }
  if (gaps.empty()) std::printf("  (none)\n");

  // Largest traced allocations.
  std::vector<const Event*> allocs;
  for (const Event& ev : events) {
    if (ev.ph == 'i' && ev.name == "alloc") allocs.push_back(&ev);
  }
  std::sort(allocs.begin(), allocs.end(),
            [](const Event* a, const Event* b) { return a->arg > b->arg; });
  std::printf("\nlargest allocations (>= event threshold):\n");
  for (std::size_t i = 0; i < std::min(top_n, allocs.size()); ++i) {
    std::printf("  %10lld bytes at %12.1f us (lane %d)\n",
                static_cast<long long>(allocs[i]->arg), allocs[i]->ts_us,
                allocs[i]->lane);
  }
  if (allocs.empty()) std::printf("  (none)\n");

  // Peaks from the counter tracks.
  std::int64_t peak_ready = 0, peak_live = 0, peak_heap = 0;
  double peak_ready_ts = 0, peak_live_ts = 0;
  for (const Event& ev : events) {
    if (ev.ph != 'C') continue;
    if (ev.ready > peak_ready) { peak_ready = ev.ready; peak_ready_ts = ev.ts_us; }
    if (ev.live > peak_live) { peak_live = ev.live; peak_live_ts = ev.ts_us; }
    if (ev.heap > peak_heap) peak_heap = ev.heap;
  }
  std::printf("\npeaks (sampled):\n");
  std::printf("  live threads %lld at %.1f us\n",
              static_cast<long long>(peak_live), peak_live_ts);
  std::printf("  ready queue  %lld at %.1f us\n",
              static_cast<long long>(peak_ready), peak_ready_ts);
  std::printf("  heap         %lld bytes\n", static_cast<long long>(peak_heap));
  return 0;
}

// -- serve-soak report (--serve) ----------------------------------------------

/// Splits the `"key": [{...}, {...}]` array embedded in `line` into its
/// top-level object substrings. serve_soak writes each pass on one line, so
/// the arrays never span lines.
std::vector<std::string> object_list(const std::string& line, const char* key) {
  std::vector<std::string> out;
  const std::string pat = std::string("\"") + key + "\": [";
  auto pos = line.find(pat);
  if (pos == std::string::npos) return out;
  pos += pat.size();
  int depth = 0;
  std::size_t start = 0;
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c == '{') {
      if (depth == 0) start = pos;
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) out.push_back(line.substr(start, pos - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

int serve_summarize(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dfth-trace: cannot open %s\n", path.c_str());
    return 1;
  }

  std::printf("serve soak: %s\n", path.c_str());
  int passes = 0;
  int status = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string tag;
    if (!string_value(line, "pass", &tag)) continue;
    ++passes;

    std::int64_t requests = 0, completed = 0, rejected = 0, expired = 0;
    std::int64_t retries = 0, rej_queue = 0, rej_shed = 0, rej_adm = 0;
    std::int64_t exp_queue = 0, exp_running = 0, transitions = 0;
    std::int64_t peak_inflight = 0, peak_depth = 0, peak_live = 0;
    std::int64_t baseline = 0, usable = 0, faults = 0, max_rss_kb = 0;
    double rps = 0;
    int_value(line, "requests", &requests);
    int_value(line, "completed", &completed);
    int_value(line, "rejected", &rejected);
    int_value(line, "expired", &expired);
    int_value(line, "retries", &retries);
    int_value(line, "rejected_queue", &rej_queue);
    int_value(line, "rejected_shed", &rej_shed);
    int_value(line, "rejected_admission", &rej_adm);
    int_value(line, "expired_queue", &exp_queue);
    int_value(line, "expired_running", &exp_running);
    int_value(line, "tier_transitions", &transitions);
    int_value(line, "peak_inflight", &peak_inflight);
    int_value(line, "peak_depth", &peak_depth);
    int_value(line, "peak_live_bytes", &peak_live);
    int_value(line, "baseline_live_bytes", &baseline);
    int_value(line, "max_rss_kb", &max_rss_kb);
    int_value(line, "admission_usable", &usable);
    int_value(line, "faults_injected", &faults);
    num_value(line, "throughput_rps", &rps);

    std::printf("\npass %s: %lld requests -> %lld completed, %lld rejected, "
                "%lld expired  (%.1f rps, %lld client retries)\n",
                tag.c_str(), static_cast<long long>(requests),
                static_cast<long long>(completed),
                static_cast<long long>(rejected),
                static_cast<long long>(expired), rps,
                static_cast<long long>(retries));
    if (completed + rejected + expired != requests) {
      std::printf("  !! exactly-once violated: outcomes sum to %lld\n",
                  static_cast<long long>(completed + rejected + expired));
      status = 1;
    }
    std::printf("  server rejections: queue-full %lld, shed %lld, "
                "admission %lld (pre-retry counts)\n",
                static_cast<long long>(rej_queue),
                static_cast<long long>(rej_shed),
                static_cast<long long>(rej_adm));
    std::printf("  deadline expirations: in queue %lld, in flight %lld\n",
                static_cast<long long>(exp_queue),
                static_cast<long long>(exp_running));
    std::printf("  overload: %lld tier transitions, peak inflight %lld, "
                "peak queue depth %lld, faults injected %lld\n",
                static_cast<long long>(transitions),
                static_cast<long long>(peak_inflight),
                static_cast<long long>(peak_depth),
                static_cast<long long>(faults));
    const std::int64_t budget = baseline + usable;
    std::printf("  memory: peak tracked heap %lld B vs admission budget %lld B "
                "(baseline %lld + usable %lld)%s\n",
                static_cast<long long>(peak_live),
                static_cast<long long>(budget),
                static_cast<long long>(baseline),
                static_cast<long long>(usable),
                peak_live > budget ? "  !! over budget" : "");
    if (peak_live > budget) status = 1;
    if (max_rss_kb > 0) {
      std::printf("  process: max RSS %lld KiB after the pass\n",
                  static_cast<long long>(max_rss_kb));
    }

    const auto endpoints = object_list(line, "endpoints");
    if (!endpoints.empty()) {
      std::printf("  endpoints:\n");
      std::printf("    %-10s %6s %7s %6s %6s %6s %7s %10s %10s %10s\n", "name",
                  "done", "q-full", "shed", "adm", "exp-q", "exp-run", "p50",
                  "p99", "p999");
      for (const std::string& ep : endpoints) {
        std::string name;
        std::int64_t done = 0, eq = 0, es = 0, ea = 0, xq = 0, xr = 0;
        std::int64_t p50 = 0, p99 = 0, p999 = 0;
        string_value(ep, "name", &name);
        int_value(ep, "completed", &done);
        int_value(ep, "rejected_queue", &eq);
        int_value(ep, "rejected_shed", &es);
        int_value(ep, "rejected_admission", &ea);
        int_value(ep, "expired_queue", &xq);
        int_value(ep, "expired_running", &xr);
        int_value(ep, "p50_ns", &p50);
        int_value(ep, "p99_ns", &p99);
        int_value(ep, "p999_ns", &p999);
        std::printf("    %-10s %6lld %7lld %6lld %6lld %6lld %7lld "
                    "%8.2fms %8.2fms %8.2fms\n",
                    name.c_str(), static_cast<long long>(done),
                    static_cast<long long>(eq), static_cast<long long>(es),
                    static_cast<long long>(ea), static_cast<long long>(xq),
                    static_cast<long long>(xr),
                    static_cast<double>(p50) / 1e6,
                    static_cast<double>(p99) / 1e6,
                    static_cast<double>(p999) / 1e6);
      }
    }

    const auto samples = object_list(line, "headroom");
    if (!samples.empty()) {
      std::int64_t min_headroom = -1;
      std::size_t by_tier[3] = {0, 0, 0};
      for (const std::string& s : samples) {
        std::int64_t h = 0, tier = 0;
        int_value(s, "headroom", &h);
        int_value(s, "tier", &tier);
        if (min_headroom < 0 || h < min_headroom) min_headroom = h;
        if (tier >= 0 && tier < 3) ++by_tier[tier];
      }
      const double n = static_cast<double>(samples.size());
      std::printf("  headroom: %zu samples, min %lld B; tier residency: "
                  "accept %.1f%%, shed-low %.1f%%, drain-only %.1f%%\n",
                  samples.size(), static_cast<long long>(min_headroom),
                  100.0 * static_cast<double>(by_tier[0]) / n,
                  100.0 * static_cast<double>(by_tier[1]) / n,
                  100.0 * static_cast<double>(by_tier[2]) / n);
    }
  }
  if (passes == 0) {
    std::fprintf(stderr, "dfth-trace: no serve passes found in %s\n",
                 path.c_str());
    return 1;
  }
  return status;
}

void usage() {
  std::fprintf(stderr,
               "usage: dfth-trace summary <trace.json> [--top N]\n"
               "       dfth-trace --serve <BENCH_serve_soak.json>\n"
               "  trace.json: output of a traced run "
               "(obs::write_chrome_trace)\n"
               "  BENCH_serve_soak.json: output of bench/serve_soak\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--serve") == 0) {
    return serve_summarize(argv[2]);
  }
  if (argc < 3 || std::strcmp(argv[1], "summary") != 0) {
    usage();
    return argc >= 2 && std::strcmp(argv[1], "--help") == 0 ? 0 : 2;
  }
  std::size_t top_n = 10;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }
  return summarize(argv[2], top_n);
}
