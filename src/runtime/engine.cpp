#include "runtime/engine.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "analyze/auditor.h"
#include "core/worksteal_sched.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "replay/replay_sched.h"
#include "resil/faults.h"
#include "resil/watchdog.h"

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

Engine::Engine(const RuntimeOptions& opts, EngineKind kind, int lanes,
               void (*entry)(void*))
    : opts_(opts),
      lanes_(lanes),
      registry_(std::make_unique<Registry[]>(static_cast<std::size_t>(lanes))),
      caches_(std::make_unique<TcbCache[]>(static_cast<std::size_t>(opts.nprocs))),
      entry_(entry) {
  DFTH_CHECK(opts_.nprocs >= 1);
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
  if (!sched_) {
    sched_ = make_scheduler(opts_.sched, opts_.nprocs, opts_.seed,
                            opts_.cluster_size);
  }
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);
  stats_.engine = kind;
  stats_.sched = opts_.sched;
  stats_.nprocs = opts_.nprocs;
}

Engine::~Engine() {
  for (int i = 0; i < lanes_; ++i) {
    for (Tcb *t = registry_[i].head.load(std::memory_order_acquire), *next; t; t = next) {
      next = t->created_next;
      if (t->stack) StackPool::instance().release(t->stack);
      context_destroy(&t->ctx);
      delete t;
    }
  }
}

Tcb* Engine::new_tcb(std::uint64_t id, std::function<void*()> fn,
                     const Attr& attr, bool is_dummy, Tcb* parent,
                     const char* site_file, int site_line,
                     std::size_t stack_bytes, int lane, bool probe) {
  Tcb* t = take_tcb(lane);
  if (t == nullptr) {
    t = new Tcb(0);
    tcbs_allocated_.fetch_add(1, std::memory_order_relaxed);
    // A CAS, not a store: Real's external lane has many pushers.
    std::atomic<Tcb*>& head = registry_[lane].head;
    t->created_next = head.load(std::memory_order_relaxed);
    while (!head.compare_exchange_weak(t->created_next, t, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }
  t->id = id;
  t->attr = attr;
  if (t->attr.stack_size == 0) t->attr.stack_size = opts_.default_stack_size;
  DFTH_CHECK(t->attr.priority >= 0 && t->attr.priority < kNumPriorities);
  t->entry = std::move(fn);
  t->is_dummy = is_dummy;
  t->parent = parent;
  t->site_file = site_file;
  t->site_line = site_line;
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
  if (t->stack) context_make(&t->ctx, t->stack.base, t->stack.top(), entry_, t);
  return t;
}

Tcb* Engine::new_main(const std::function<void()>& main_fn, std::uint64_t id,
                      std::size_t stack_bytes, int lane, bool probe) {
  Tcb* main = new_tcb(
      id,
      [&main_fn]() -> void* {
        main_fn();
        return nullptr;
      },
      Attr{}, /*is_dummy=*/false, /*parent=*/nullptr, "<main>", 0, stack_bytes,
      lane, probe);
  main->is_main = true;
  main->refs.store(1, std::memory_order_relaxed);  // no handle: never joined
  obs::edges::fork(0, nullptr, main, 0);
  return main;
}

void Engine::decide_inline(Tcb* parent, Tcb* child, LaneCounters& c, int lane) {
  count_birth(c, child, 0);
  ++c.inline_runs;
  if (auto* aud = analyze::active_auditor()) aud->on_inline_run(parent, child);
  [[maybe_unused]] const std::uint64_t deadline =
      grant(child, c, lane, obs::edges::DispatchCost{}, /*inline_run=*/true);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                     ::dfth::replay::self_actor(), child->id,
                     ::dfth::replay::kSpawnInline | deadline);
  // The body runs as its parent, in the child's cancellation scope and
  // race-detector segment.
  if (parent) {
    std::swap(parent->cancel, child->cancel);
    obs::edges::inline_body(parent, child);
  }
}

void Engine::end_inline(Tcb* child, int lane) {
  if (Tcb* parent = child->parent) {
    std::swap(parent->cancel, child->cancel);
    obs::edges::inline_body(parent, child);
  }
  obs::edges::exit(lane, child);
  hand_off(child, /*log=*/false);
  child->state.store(ThreadState::Done, std::memory_order_release);
  release(child, lane);
}

Tcb* Engine::hand_off(Tcb* t, bool log) {
  if (log) DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  t->finished = true;
  Tcb* joiner = t->joiner;
  t->joiner = nullptr;
  // b names the joiner (0 = none yet), so replay verifies the outcome.
  if (log) {
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitJoin,
                       ::dfth::replay::self_actor(), t->id,
                       joiner ? joiner->id : 0);
  }
  t->join_lock.unlock();
  return joiner;
}

void Engine::retire_stack(Tcb* t) {
  context_finalize(&t->ctx);
  obs::edges::retire(t->stack.base, t->stack.size);
  StackPool::instance().release(t->stack);
  t->stack = Stack{};
}

Tcb* Engine::take_tcb(int lane) {
  if (lane >= opts_.nprocs) {
    // The shared lane's cache is the spill list.
    std::lock_guard<SpinLock> g(spill_mu_);
    if (spill_.empty()) return nullptr;
    Tcb* t = spill_.back();
    spill_.pop_back();
    return t;
  }
  TcbCache& c = caches_[lane];
  if (c.head == nullptr) {
    // Refill with a batch from the spill list before allocating.
    std::lock_guard<SpinLock> g(spill_mu_);
    for (int i = 0; i < kTcbBatch && !spill_.empty(); ++i, ++c.count) {
      Tcb* t = spill_.back();
      spill_.pop_back();
      t->sched_next = c.head;
      c.head = t;
    }
  }
  Tcb* t = c.head;
  if (t != nullptr) {
    c.head = t->sched_next;
    t->sched_next = nullptr;
    --c.count;
  }
  return t;
}

void Engine::recycle(Tcb* t, int lane) {
  // Exited (so on no wait list), applied, unregistered and retired.
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Done);
  DFTH_DCHECK(!t->posted.load(std::memory_order_relaxed));
  DFTH_DCHECK(!t->order.linked());
  DFTH_DCHECK(!t->stack);
  // Every plain field is re-constructed (so `race_vc`, `tls` and
  // `held_locks` are freed), id 0 included. The memory is never freed
  // before ~Engine, and `state` is stored, not re-constructed: the adaptive
  // Mutex may still poll a stale owner's state without a lock.
  context_destroy(&t->ctx);
  static_cast<TcbProgram&>(*t) = TcbProgram{};
  static_cast<TcbFields&>(*t) = TcbFields{};
  t->state.store(ThreadState::Embryo, std::memory_order_relaxed);
  t->refs.store(2, std::memory_order_relaxed);
  if (lane >= opts_.nprocs) {
    std::lock_guard<SpinLock> g(spill_mu_);
    spill_.push_back(t);
    return;
  }
  TcbCache& c = caches_[lane];
  t->sched_next = c.head;
  c.head = t;
  if (++c.count <= 2 * kTcbBatch) return;
  std::lock_guard<SpinLock> g(spill_mu_);
  for (int i = 0; i < kTcbBatch; ++i, --c.count) {
    Tcb* s = c.head;
    c.head = s->sched_next;
    s->sched_next = nullptr;
    spill_.push_back(s);
  }
}

bool Engine::end_wait(Tcb* t) {
  std::erase_if(sleepers_, [t](const Sleeper& s) { return s.t == t; });
  const bool timed_out = t->timed_out;
  t->timed_out = false;
  return !timed_out;
}

std::uint64_t Engine::expire(Tcb* t, LaneCounters& c, int lane, bool inline_run) {
  CancelToken* tok = t->cancel;
  const std::uint64_t bit =
      inline_run ? ::dfth::replay::kSpawnDeadline : ::dfth::replay::kDispatchDeadline;
  bool fire;
  if (replay::pinned_active()) {
    // This actor's gate already passed and the section's earlier records
    // are committed, so the head is this very record: the lane's Dispatch,
    // or the parent's SpawnReg of an inline child. A head that is not means
    // the run is about to diverge; the commit diagnoses that, so don't fire.
    std::uint64_t tid = 0;
    std::uint64_t logged_b = 0;
    fire = replay::active()->head_is(
               inline_run ? replay::EvKind::SpawnReg : replay::EvKind::Dispatch,
               inline_run ? replay::self_actor() : replay::lane_actor(lane), &tid,
               nullptr, &logged_b) &&
           tid == t->id && (logged_b & bit) != 0;
  } else
  {
    fire = tok->deadline_ns != 0 && !tok->is_cancelled() &&
           now_ns() >= tok->deadline_ns;
  }
  if (!fire) return 0;
  if (!tok->is_cancelled()) tok->cancel();
  ++c.deadline_expirations;
  obs::edges::preempt(lane, t, obs::kPreemptDeadline);
  DFTH_REPLAY_CANCEL_FIRE(lane, t->id);
  return bit;
}

bool Engine::oom_preempt(Tcb* t, int attempt) {
  constexpr int kOomMaxAttempts = 16;
  if (attempt >= kOomMaxAttempts) return false;
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
  if (auto* rs = dynamic_cast<replay::ReplayScheduler*>(sched_.get())) {
    return rs->steal_count();
  }
  auto* ws = dynamic_cast<WorkStealScheduler*>(sched_->underlying());
  return ws ? ws->steal_count() : 0;
}

void Engine::dump_and_abort(resil::FlightInfo& info, const char* what) {
  info.engine = to_string(kind());
  info.sched = sched_.get();
  info.tracer = obs::tracer();
  std::vector<Tcb*> threads;
  for (int i = 0; i < lanes_; ++i) {
    for (Tcb* t = registry_[i].head.load(std::memory_order_acquire); t != nullptr;
         t = t->created_next) {
      if (t->id != 0) threads.push_back(t);  // id 0: free
    }
  }
  std::sort(threads.begin(), threads.end(),
            [](const Tcb* a, const Tcb* b) { return a->id < b->id; });
  info.all_tcbs = &threads;
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
  resil::dump_flight_recorder(info, opts_.watchdog);
  DFTH_CHECK_MSG(false, what);
}

}  // namespace dfth
