#include "obs/counters.h"

namespace dfth::obs {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::Forks: return "forks";
    case Counter::Joins: return "joins";
    case Counter::Dispatches: return "dispatches";
    case Counter::Preempts: return "preempts";
    case Counter::QuotaExhausts: return "quota_exhausts";
    case Counter::DummySpawns: return "dummy_spawns";
    case Counter::Steals: return "steals";
    case Counter::Blocks: return "blocks";
    case Counter::Wakes: return "wakes";
    case Counter::Exits: return "exits";
    case Counter::ReadyPushes: return "ready_pushes";
    case Counter::ReadyPops: return "ready_pops";
    case Counter::StacksFresh: return "stacks_fresh";
    case Counter::StacksReused: return "stacks_reused";
    case Counter::Allocs: return "allocs";
    case Counter::Frees: return "frees";
    case Counter::AllocBytes: return "alloc_bytes";
    case Counter::FreeBytes: return "free_bytes";
    case Counter::OomPreempts: return "oom_preempts";
    case Counter::InlineRuns: return "inline_runs";
    case Counter::SyncTimeouts: return "sync_timeouts";
    case Counter::FaultsInjected: return "faults_injected";
    case Counter::FaultsRecovered: return "faults_recovered";
    case Counter::kCount: break;
  }
  return "?";
}

const char* to_string(Hist h) {
  switch (h) {
    case Hist::DispatchGapNs: return "dispatch_gap_ns";
    case Hist::StealLatencyNs: return "steal_latency_ns";
    case Hist::ReadyWaitNs: return "ready_wait_ns";
    case Hist::kCount: break;
  }
  return "?";
}

}  // namespace dfth::obs
