#include "obs/trace.h"

#include <algorithm>

#include "space/stack_pool.h"

namespace dfth::obs {
namespace {

/// The counter an event kind implies: emitting the event is its one count.
/// Alloc/free and stack events return kCount: their counters count *every*
/// operation, not just the traced ones (edges::heap counts below the event
/// threshold; the stack pool keeps exact counts of its own).
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
    case EvKind::Steal: return Counter::Steals;
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
  lanes_.clear();
  for (int i = 0; i < std::max(lanes, 1); ++i) {
    lanes_.push_back(std::make_unique<Lane>(cfg_.ring_capacity));
  }
  samples_.clear();
  clock_ = std::move(clock);
  stacks_fresh0_ = StackPool::instance().fresh_count();
  stacks_reused0_ = StackPool::instance().reuse_count();
  for (auto& c : counter_snapshot_) c = 0;
  for (auto& h : hist_snapshot_) h = HistSnapshot{};
}

void Tracer::end_run(const RunStats& stats) {
  for (int c = 0; c < kNumCounters; ++c) {
    counter_snapshot_[c] = live_counter(static_cast<Counter>(c));
  }
  counter_snapshot_[static_cast<int>(Counter::OomPreempts)] = stats.oom_preemptions;
  counter_snapshot_[static_cast<int>(Counter::InlineRuns)] = stats.inline_runs;
  counter_snapshot_[static_cast<int>(Counter::SyncTimeouts)] = stats.sync_timeouts;
  counter_snapshot_[static_cast<int>(Counter::FaultsInjected)] = stats.faults_injected;
  counter_snapshot_[static_cast<int>(Counter::FaultsRecovered)] = stats.faults_recovered;
  for (int h = 0; h < kNumHists; ++h) {
    hist_snapshot_[h] = live_hist(static_cast<Hist>(h));
  }
  clock_ = nullptr;
}

std::uint64_t Tracer::live_counter(Counter c) const {
  if (c == Counter::StacksFresh) {
    return StackPool::instance().fresh_count() - stacks_fresh0_;
  }
  if (c == Counter::StacksReused) {
    return StackPool::instance().reuse_count() - stacks_reused0_;
  }
  std::uint64_t n = 0;
  for (const auto& l : lanes_) {
    n += l->counts[static_cast<int>(c)].load(std::memory_order_relaxed);
  }
  return n;
}

HistSnapshot Tracer::live_hist(Hist h) const {
  HistSnapshot merged;
  for (const auto& l : lanes_) {
    const HistSnapshot s = l->hists[static_cast<int>(h)].snapshot();
    for (int b = 0; b < 64; ++b) merged.buckets[b] += s.buckets[b];
  }
  return merged;
}

void Tracer::emit(int lane, EvKind kind, std::uint64_t tid, std::uint64_t arg) {
  emit_at(lane, kind, now(), tid, arg);
}

void Tracer::emit_at(int lane, EvKind kind, std::uint64_t ts_ns,
                     std::uint64_t tid, std::uint64_t arg) {
  if (lanes_.empty()) return;
  const std::size_t idx = clamp(lane);
  TraceEvent ev;
  ev.ts_ns = ts_ns;
  ev.tid = tid;
  ev.arg = arg;
  ev.lane = static_cast<std::uint16_t>(idx);
  ev.kind = kind;
  lanes_[idx]->ring.push(ev);
  const Counter c = auto_counter(kind);
  if (c != Counter::kCount) add(static_cast<int>(idx), c);
}

std::vector<TraceEvent> Tracer::lane_events(int lane) const {
  if (lane < 0 || static_cast<std::size_t>(lane) >= lanes_.size()) return {};
  return lanes_[static_cast<std::size_t>(lane)]->ring.drain();
}

std::vector<TraceEvent> Tracer::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(event_count());
  for (const auto& l : lanes_) {
    auto events = l->ring.drain();
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
  for (const auto& l : lanes_) n += l->ring.size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->ring.dropped();
  return n;
}

}  // namespace dfth::obs
