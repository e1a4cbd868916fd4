#include "obs/trace.h"

#include <algorithm>

namespace dfth::obs {
namespace {

/// Map an event kind to the counter it implies, so engines don't have to
/// pair every traced event with a DFTH_COUNT. Alloc/free and stack
/// events return kCount (no auto-bump): their counters must count *every*
/// operation, not just those above the event threshold, so the heap and
/// stack pool bump them at the source.
Counter auto_counter(EvKind kind) {
  switch (kind) {
    case EvKind::Fork: return Counter::Forks;
    case EvKind::Join: return Counter::Joins;
    case EvKind::Dispatch: return Counter::Dispatches;
    case EvKind::Preempt: return Counter::Preempts;
    case EvKind::QuotaExhaust: return Counter::QuotaExhausts;
    case EvKind::DummySpawn: return Counter::DummySpawns;
    case EvKind::Block: return Counter::Blocks;
    case EvKind::Wake: return Counter::Wakes;
    case EvKind::Exit: return Counter::Exits;
    case EvKind::Steal:
    case EvKind::StackFresh:
    case EvKind::StackReuse:
    case EvKind::Alloc:
    case EvKind::Free:
    case EvKind::kCount: break;
  }
  return Counter::kCount;
}

}  // namespace

const char* to_string(EvKind k) {
  switch (k) {
    case EvKind::Fork: return "fork";
    case EvKind::Join: return "join";
    case EvKind::Dispatch: return "dispatch";
    case EvKind::Preempt: return "preempt";
    case EvKind::QuotaExhaust: return "quota_exhaust";
    case EvKind::DummySpawn: return "dummy_spawn";
    case EvKind::Steal: return "steal";
    case EvKind::Block: return "block";
    case EvKind::Wake: return "wake";
    case EvKind::Exit: return "exit";
    case EvKind::StackFresh: return "stack_fresh";
    case EvKind::StackReuse: return "stack_reuse";
    case EvKind::Alloc: return "alloc";
    case EvKind::Free: return "free";
    case EvKind::kCount: break;
  }
  return "?";
}

// -- TraceRing ----------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity) : buf_(capacity > 0 ? capacity : 1) {}

void TraceRing::push(const TraceEvent& ev) {
  const std::size_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  if (idx < buf_.size()) {
    buf_[idx] = ev;
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t TraceRing::size() const {
  return std::min(next_.load(std::memory_order_relaxed), buf_.size());
}

std::vector<TraceEvent> TraceRing::drain() const {
  return {buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(size())};
}

// -- Tracer -------------------------------------------------------------------

Tracer::Tracer(TraceConfig cfg) : cfg_(cfg) {}

void Tracer::begin_run(int lanes, std::function<std::uint64_t()> clock) {
  rings_.clear();
  for (int i = 0; i < std::max(lanes, 1); ++i) {
    rings_.push_back(std::make_unique<TraceRing>(cfg_.ring_capacity));
  }
  samples_.clear();
  clock_ = std::move(clock);
  for (auto& c : counter_snapshot_) c = 0;
  for (auto& h : hist_snapshot_) h = HistSnapshot{};
  counters().reset();
  histograms().reset();
}

void Tracer::end_run() {
  for (int c = 0; c < kNumCounters; ++c) {
    counter_snapshot_[c] = counters().value(static_cast<Counter>(c));
  }
  for (int h = 0; h < kNumHists; ++h) {
    hist_snapshot_[h] = histograms().snapshot(static_cast<Hist>(h));
  }
  clock_ = nullptr;
}

void Tracer::emit(int lane, EvKind kind, std::uint64_t tid, std::uint64_t arg) {
  emit_at(lane, kind, now(), tid, arg);
}

void Tracer::emit_at(int lane, EvKind kind, std::uint64_t ts_ns,
                     std::uint64_t tid, std::uint64_t arg) {
  if (rings_.empty()) return;
  const auto idx = std::min(static_cast<std::size_t>(lane < 0 ? 0 : lane),
                            rings_.size() - 1);
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.tid = tid;
  ev.arg = arg;
  ev.lane = static_cast<std::uint16_t>(idx);
  ev.kind = kind;
  rings_[idx]->push(ev);
  const Counter c = auto_counter(kind);
  if (c != Counter::kCount) counters().inc(c);
}

std::vector<TraceEvent> Tracer::lane_events(int lane) const {
  if (lane < 0 || static_cast<std::size_t>(lane) >= rings_.size()) return {};
  return rings_[static_cast<std::size_t>(lane)]->drain();
}

std::vector<TraceEvent> Tracer::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(event_count());
  for (const auto& ring : rings_) {
    auto events = ring->drain();
    all.insert(all.end(), events.begin(), events.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return all;
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& ring : rings_) n += ring->size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& ring : rings_) n += ring->dropped();
  return n;
}

}  // namespace dfth::obs
