#include "runtime/engine.h"

#include <algorithm>

#include "analyze/auditor.h"
#include "core/worksteal_sched.h"
#include "obs/counters.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "resil/faults.h"
#include "resil/watchdog.h"

#if DFTH_REPLAY
#include "replay/replay_sched.h"
#endif

namespace dfth {

void Engine::LaneCounters::add_to(RunStats* s) const {
  s->threads_created += threads_created;
  s->dummy_threads += dummy_threads;
  s->max_live_threads = std::max(s->max_live_threads, max_live_threads);
  s->dispatches += dispatches;
  s->quota_preemptions += quota_preemptions;
  s->oom_preemptions += oom_preemptions;
  s->inline_runs += inline_runs;
  s->sync_timeouts += sync_timeouts;
  s->deadline_expirations += deadline_expirations;
  s->sched_lock_sections += sched_lock_sections;
}

Engine::Engine(const RuntimeOptions& opts, EngineKind kind) : opts_(opts) {
  DFTH_CHECK(opts_.nprocs >= 1);
#if DFTH_REPLAY
  if (auto* rs = replay::active();
      rs != nullptr && rs->mode() != replay::Mode::Record) {
    // Serve the logged dispatch outcomes (replay/replay_sched.h says why the
    // policy cannot be replayed through), under the *logged* policy kind so
    // needs_quota matches. Built directly: AuditedScheduler must not audit
    // a pinned schedule against a policy it does not implement.
    sched_ = std::make_unique<replay::ReplayScheduler>(
        rs, static_cast<SchedKind>(rs->header().sched),
        rs->mode() == replay::Mode::Replay ? replay::ReplayScheduler::Pinning::Pin
                                           : replay::ReplayScheduler::Pinning::Cross);
  }
  if (!sched_)
#endif
  sched_ = make_scheduler(opts_.sched, opts_.nprocs, opts_.seed,
                          opts_.cluster_size);
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);
  stats_.engine = kind;
  stats_.sched = opts_.sched;
  stats_.nprocs = opts_.nprocs;
}

Tcb* Engine::new_tcb(std::uint64_t id, std::function<void*()> fn,
                     const Attr& attr, bool is_dummy, Tcb* parent,
                     std::size_t stack_bytes, void (*entry)(void*), bool probe) {
  Tcb* t = new Tcb(id);
  t->attr = attr;
  if (t->attr.stack_size == 0) t->attr.stack_size = opts_.default_stack_size;
  DFTH_CHECK(t->attr.priority >= 0 && t->attr.priority < kNumPriorities);
  t->entry = std::move(fn);
  t->is_dummy = is_dummy;
  t->detached = attr.detached;
  t->parent = parent;
  // Deadline propagation: a child without its own cancellation scope joins
  // the parent's, so a request's token covers the whole spawn subtree.
  t->cancel = attr.cancel != nullptr ? attr.cancel : (parent ? parent->cancel : nullptr);
  if (stack_bytes == 0) return t;
  t->stack = StackPool::instance().acquire(stack_bytes);
  if (t->stack && probe && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kCtxCreate)) {
    StackPool::instance().release(t->stack);
    t->stack = Stack{};
    // The caller's inline run absorbs this.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kCtxCreate);
  }
  if (t->stack) context_make(&t->ctx, t->stack.base, t->stack.top(), entry, t);
  return t;
}

void Engine::decide_inline(Tcb* parent, Tcb* child, LaneCounters& c) {
  ++c.threads_created;
  ++c.inline_runs;
  if (child->is_dummy) ++c.dummy_threads;
  DFTH_COUNT(obs::Counter::InlineRuns);
  if (auto* aud = analyze::active_auditor()) aud->on_inline_run(parent, child);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                     ::dfth::replay::self_actor(), child->id,
                     ::dfth::replay::kSpawnInline);
}

void Engine::run_inline(Tcb* child, int lane) {
  child->state.store(ThreadState::Running, std::memory_order_relaxed);
  ++child->dispatches;
  obs::edges::dispatch(lane, child, obs::edges::DispatchCost{});
  child->result = child->entry();
  child->entry = nullptr;
}

void Engine::end_inline(Tcb* child, int lane) {
  obs::edges::exit(lane, child);
  child->join_lock.lock();
  child->finished = true;
  child->join_lock.unlock();
  child->state.store(ThreadState::Done, std::memory_order_release);
}

std::uint64_t Engine::expire(Tcb* t, LaneCounters& c, int lane) {
  CancelToken* tok = t->cancel;
  bool fire;
#if DFTH_REPLAY
  if (replay::pinned_active()) {
    // This lane's gate already passed and the section's earlier records are
    // committed, so the head is this very Dispatch. A head that is not means
    // the run is about to diverge; the commit diagnoses that, so don't fire.
    std::uint64_t tid = 0;
    std::uint64_t logged_b = 0;
    fire = replay::active()->head_is(replay::EvKind::Dispatch,
                                     replay::lane_actor(lane), &tid, nullptr,
                                     &logged_b) &&
           tid == t->id && (logged_b & replay::kDispatchDeadline) != 0;
  } else
#endif
  {
    fire = tok->deadline_ns != 0 && !tok->is_cancelled() &&
           now_ns() >= tok->deadline_ns;
  }
  if (!fire) return 0;
  if (!tok->is_cancelled()) tok->cancel();
  ++c.deadline_expirations;
  obs::edges::preempt(lane, t, obs::kPreemptDeadline);
  DFTH_REPLAY_CANCEL_FIRE(lane, t->id);
  return ::dfth::replay::kDispatchDeadline;
}

bool Engine::oom_preempt(Tcb* t, int attempt) {
  constexpr int kOomMaxAttempts = 16;
  if (attempt >= kOomMaxAttempts) return false;
  DFTH_COUNT(obs::Counter::OomPreempts);
  if (auto* aud = analyze::active_auditor()) aud->on_oom_preempt(t);
  return true;
}

std::size_t Engine::shrink_quota() {
  std::size_t k = quota_bytes();
  if (k > 0) {
    k = std::max<std::size_t>(k / 2, 4096);
    eff_quota_.store(k, std::memory_order_relaxed);
  }
  return k;
}

std::uint64_t Engine::steal_count() const {
#if DFTH_REPLAY
  if (auto* rs = dynamic_cast<replay::ReplayScheduler*>(sched_.get())) {
    return rs->steal_count();
  }
#endif
  auto* ws = dynamic_cast<WorkStealScheduler*>(sched_->underlying());
  return ws ? ws->steal_count() : 0;
}

void Engine::dump(resil::FlightInfo& info) {
  info.engine = to_string(kind());
  info.sched = sched_.get();
  info.tracer = obs::tracer();
#if DFTH_REPLAY
  if (auto* rs = replay::active()) {
    if (rs->mode() == replay::Mode::Record) {
      // Persist the schedule up to the abort so the failure itself replays.
      rs->flush_partial();
      info.record_log = rs->path();
      info.replay_cmd = "tools/dfth-replay replay " + rs->path();
    } else {
      info.replay_log = rs->path();
      info.replay_position = rs->position_summary();
    }
  }
#endif
  resil::dump_flight_recorder(info, opts_.watchdog);
}

}  // namespace dfth
