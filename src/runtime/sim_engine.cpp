#include "runtime/sim_engine.h"

#include <algorithm>
#include <limits>
#include <span>

#include "obs/edges.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "resil/watchdog.h"
#include "space/tracked_heap.h"
#include "util/check.h"

namespace dfth {

using obs::edges::At;
using obs::edges::DispatchCost;

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

/// Real stack sizes are decoupled from simulated ones: simulated sizes feed
/// the cost/space model (a simulated 1 MB Solaris stack must not consume
/// 1 MB of host memory across thousands of live fibers), while real fibers
/// get enough space for the benchmarks' serial base cases.
constexpr std::size_t kRealStackBytes = 128 << 10;
constexpr std::size_t kRealMainStackBytes = 1 << 20;

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Pending events fold once this many have piled up, or twice as many as
/// the last fold left.
constexpr std::size_t kFoldMinEvents = std::size_t{1} << 16;

// Applies the (instant, delta) changes of `ev` before `horizon` to *level,
// raising *peak, in virtual-time order: it sorts `ev`, and equal instants
// apply rises first when `rises_first`, else falls first. Every change must
// be at or after `folded`, the horizon already applied. Each of `due`, the
// samples before `horizon` in time order, gets in `field` the level after
// every change at or before its instant. Returns the end of the applied
// prefix.
template <class Delta>
auto apply_level(std::vector<std::pair<std::uint64_t, Delta>>& ev,
                 std::uint64_t folded, std::uint64_t horizon, bool rises_first,
                 std::int64_t* level, std::int64_t* peak,
                 std::span<obs::Sample> due, std::int64_t obs::Sample::*field) {
  std::sort(ev.begin(), ev.end(), [rises_first](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return rises_first ? a.second > b.second : a.second < b.second;
  });
  DFTH_CHECK_MSG(ev.empty() || ev.front().first >= folded,
                 "an event precedes the folded horizon");
  auto it = ev.begin();
  auto apply_until = [&](auto before) {
    for (; it != ev.end() && before(it->first); ++it) {
      *peak = std::max(*peak, *level += it->second);
    }
  };
  for (obs::Sample& s : due) {
    apply_until([&s](std::uint64_t ts) { return ts <= s.ts_ns; });
    s.*field = *level;
  }
  apply_until([horizon](std::uint64_t ts) { return ts < horizon; });
  return it;
}

}  // namespace

bool SimEngine::LruCache::touch_block(std::uint32_t id) {
  ++tick;
  std::size_t victim = 0;
  std::uint64_t oldest = kInf;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].first == id) {
      slots[i].second = tick;
      return true;
    }
    if (slots[i].second < oldest) {
      oldest = slots[i].second;
      victim = i;
    }
  }
  if (slots.size() < capacity) {
    slots.emplace_back(id, tick);
  } else if (capacity > 0) {
    slots[victim] = {id, tick};
  }
  return false;
}

SimEngine::SimEngine(const RuntimeOptions& opts)
    : Engine(opts, EngineKind::Sim, opts.nprocs, &fiber_entry) {
  procs_.resize(static_cast<std::size_t>(opts_.nprocs));
  for (auto& vp : procs_) vp.cache.capacity = opts_.cost.cache_blocks;
}

SimEngine::~SimEngine() { context_destroy(&loop_ctx_); }

void SimEngine::fiber_entry(void* arg) {
  Tcb* t = static_cast<Tcb*>(arg);
  auto* self = static_cast<SimEngine*>(engine());
  run_body(t);
  self->charge(kThread, self->opts_.cost.exit_us);
  self->ev_ = Ev::Exit;
  context_switch_final(&t->ctx, &self->loop_ctx_);
}

std::uint64_t SimEngine::now_ns() const {
  if (!in_fiber_) return loop_now_ns_;
  return procs_[static_cast<std::size_t>(cur_proc_)].clock_ns + pend_total_ns();
}

void SimEngine::switch_to_loop() { context_switch(&cur_->ctx, &loop_ctx_); }

// -- fiber-context operations --------------------------------------------------

Tcb* SimEngine::spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                      const char* site_file, int site_line) {
  DFTH_CHECK_MSG(in_fiber_, "spawn outside a thread");
  Tcb* child = new_tcb(next_tid_++, std::move(fn), attr, is_dummy, cur_, site_file,
                       site_line, is_dummy ? (64 << 10) : kRealStackBytes, cur_proc_);
  if (!child->stack) {
    // The inline run. cur_ stays the parent: the virtual cost of the
    // child's body accrues to the parent (its race segment stays the
    // child's, decide_inline). The child keeps the span it inherits here,
    // creation charge included.
    obs::edges::fork(cur_proc_, cur_, child, [this] {
      return pend_total_ns() + us_to_ns(opts_.cost.create_unbound_us);
    });
    charge(kThread, opts_.cost.create_unbound_us);
    live_events_.emplace_back(now_ns(), +1);
    decide_inline(cur_, child, counters_, cur_proc_);
    run_body(child);
    charge(kThread, opts_.cost.exit_us);
    live_events_.emplace_back(now_ns(), -1);
    end_inline(child, cur_proc_);
    return child;
  }
  ev_ = Ev::Spawn;
  ev_child_ = child;
  switch_to_loop();
  return child;
}

void* SimEngine::join(Tcb* t) {
  DFTH_CHECK_MSG(in_fiber_, "join outside a thread");
  charge(kThread, opts_.cost.join_us);
  // The edge's offset: uncharged fiber-side costs, join_us included.
  if (join_blocks(cur_, t, cur_proc_, [this] { return pend_total_ns(); })) {
    ev_ = Ev::Block;  // no guard: the loop reset ev_guard_
    switch_to_loop();
    DFTH_CHECK(t->finished);
  }
  t->joined = true;
  void* result = t->result;
  release(t, cur_proc_);
  return result;
}

void SimEngine::yield() {
  DFTH_CHECK_MSG(in_fiber_, "yield outside a thread");
  ev_ = Ev::Yield;
  switch_to_loop();
}

bool SimEngine::block(SpinLock* guard, WaitList* list, std::uint64_t timeout_ns) {
  DFTH_CHECK_MSG(in_fiber_, "block outside a thread");
  DFTH_CHECK(cur_->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard == nullptr || guard->is_locked(),
                 "block without holding the wait-list guard");
  const bool timed = timeout_ns != kNoTimeout;
  DFTH_CHECK(!timed || (guard != nullptr && list != nullptr));
  charge(kSync, opts_.cost.block_us);
  if (timed) sleepers_.push_back({now_ns() + timeout_ns, cur_, guard, list});
  ev_ = Ev::Block;
  ev_guard_ = guard;
  switch_to_loop();
  return !timed || end_wait(cur_);
}

void SimEngine::fire_due_sleepers(VProc& vp, int pid) {
  for (std::size_t i = 0; i < sleepers_.size();) {
    if (sleepers_[i].deadline_ns > vp.clock_ns) {
      ++i;
      continue;
    }
    const Sleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    if (!claim(s, counters_, At{pid, vp.clock_ns}, /*log=*/false)) continue;
    sched_lock_own(vp, pid);
    ready(s.t, pid, s.deadline_ns);  // eligible from its deadline instant
  }
}

void SimEngine::wake(Tcb* t) {
  DFTH_CHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  // Happens-before edge waker → wakee. Covers both sync-object wakes (fiber
  // context, offset = pending charges) and the exit → joiner wake (loop
  // context, cur_ = the exiting child whose final span the joiner inherits).
  obs::edges::wake(cur_proc_ >= 0 ? cur_proc_ : 0, cur_, t,
                   [this] { return in_fiber_ ? pend_total_ns() : 0; });
  ready(t, cur_proc_ >= 0 ? cur_proc_ : 0, now_ns());
  if (in_fiber_) charge(kSync, opts_.cost.sched_op_us);
}

void SimEngine::charge_sync_op() {
  charge(kSync, opts_.cost.sync_op_us);
  if (!in_fiber_) return;
  // Pause at every sync operation (see Ev::SyncPause): the loop will resume
  // this fiber once its processor is again the earliest, so the operation's
  // effect lands in virtual-time order relative to other threads' sync ops.
  ev_ = Ev::SyncPause;
  switch_to_loop();
}

void SimEngine::on_alloc(std::size_t bytes, std::int64_t fresh_bytes) {
  charge(kMem, opts_.cost.malloc_us(bytes, fresh_bytes));
  heap_events_.emplace_back(now_ns(), static_cast<std::int64_t>(bytes));
  obs::edges::heap(cur_proc_ >= 0 ? cur_proc_ : 0, cur_, bytes, /*freed=*/false);
  if (in_fiber_ && uses_alloc_quota() && debit(cur_, bytes, counters_, cur_proc_)) {
    ev_ = Ev::QuotaPreempt;
    switch_to_loop();
  }
}

void SimEngine::on_free(std::size_t bytes) {
  charge(kMem, opts_.cost.free_base_us);
  heap_events_.emplace_back(now_ns(), -static_cast<std::int64_t>(bytes));
  obs::edges::heap(cur_proc_ >= 0 ? cur_proc_ : 0, cur_, bytes, /*freed=*/true);
}

bool SimEngine::on_alloc_failed(std::size_t /*bytes*/, int attempt) {
  if (!in_fiber_ || !oom_preempt(cur_, attempt)) return false;
  ++counters_.oom_preemptions;
  shrink_quota();
  // Exponential virtual backoff: later attempts wait longer for concurrent
  // frees to land.
  charge(kMem, opts_.cost.free_base_us *
                   static_cast<double>(1u << std::min(attempt, 10)));
  ev_ = Ev::OomPreempt;
  switch_to_loop();
  return true;
}

void SimEngine::add_work(std::uint64_t ops) {
  // Memory pressure multiplies the cost of useful work: a large live
  // footprint (heap plus the touched pages of live and cached stacks) means
  // TLB/page misses on every access (paper §3.1 and Figure 6).
  const double mult = opts_.cost.pressure(TrackedHeap::instance().live_bytes() +
                                          sim_stack_touched_);
  charge(kWork, opts_.cost.work_us(ops) * mult);
}

void SimEngine::touch(const std::uint32_t* block_ids, std::size_t count) {
  if (!in_fiber_) return;
  auto& cache = procs_[static_cast<std::size_t>(cur_proc_)].cache;
  double us = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (cache.touch_block(block_ids[i])) {
      ++stats_.cache_hits;
      us += opts_.cost.cache_hit_us;
    } else {
      ++stats_.cache_misses;
      us += opts_.cost.cache_miss_us;
    }
  }
  charge(kMem, us);
}

// -- simulated stack pool ---------------------------------------------------

double SimEngine::sim_stack_acquire_us(std::size_t bytes) {
  sim_stack_live_ += static_cast<std::int64_t>(bytes);
  auto it = sim_stack_pool_.find(bytes);
  double us;
  const bool fresh = it == sim_stack_pool_.end() || it->second == 0;
  if (!fresh) {
    // A cached stack is already mapped and touched; its footprint simply
    // moves from the pool back to a live thread.
    --it->second;
    sim_stack_pooled_ -= static_cast<std::int64_t>(bytes);
    ++stats_.stacks_reused;
    us = opts_.cost.stack_pooled_us;
  } else {
    ++stats_.stacks_fresh;
    sim_stack_touched_ += static_cast<std::int64_t>(
        std::min(bytes, opts_.cost.stack_touched_cap));
    us = opts_.cost.stack_fresh_us(bytes);
  }
  obs::edges::stack(cur_proc_ >= 0 ? cur_proc_ : 0, cur_, bytes, fresh);
  sim_stack_peak_ = std::max(sim_stack_peak_, sim_stack_live_ + sim_stack_pooled_);
  return us;
}

void SimEngine::sim_stack_release(std::size_t bytes) {
  sim_stack_live_ -= static_cast<std::int64_t>(bytes);
  sim_stack_pooled_ += static_cast<std::int64_t>(bytes);
  ++sim_stack_pool_[bytes];
}

// -- the event loop --------------------------------------------------------

RunStats SimEngine::run(const std::function<void()>& main_fn) {
  TrackedHeap::instance().begin_epoch();
  heap_initial_live_ = TrackedHeap::instance().live_bytes();
  heap_level_ = heap_peak_ = heap_initial_live_;
  fold_at_ = kFoldMinEvents;

  // Main skips the ctx.create probe: it has no parent to run inline on, and
  // a draw here would shift every later one.
  Tcb* main = new_main(main_fn, next_tid_++, kRealMainStackBytes, /*lane=*/0,
                       /*probe=*/false);
  // A null stack here means even the heap-backed fallback failed — the
  // host is truly out of memory.
  DFTH_CHECK_MSG(main->stack, "out of memory acquiring the main fiber stack");

  live_ = 1;
  count_birth(counters_, main, 0);
  live_events_.emplace_back(0, +1);
  sim_stack_acquire_us(main->attr.stack_size);  // cost of the first stack: free
  sched_->register_thread(nullptr, main);
  // Single host thread: recording needs no gates here or below — commits
  // merely stamp the (already deterministic) decision order into the log so
  // a Sim log can be inspected and cross-replayed like a Real one.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                     ::dfth::replay::kActorHost, main->id, 0);
  ready(main, 0, 0);

  sim_loop();

  // Finalize: pad every processor with idle time to the completion instant
  // so breakdown percentages are over p * T_completion, then aggregate.
  std::uint64_t completion = 0;
  for (const auto& vp : procs_) completion = std::max(completion, vp.clock_ns);
  stats_.elapsed_us = ns_to_us(completion);
  for (auto& vp : procs_) {
    vp.bd.idle_us += ns_to_us(completion - vp.clock_ns);
    for (int c = 0; c < Breakdown::kNumCategories; ++c) {
      stats_.breakdown.category(c) += vp.bd.category(c);
    }
  }
  if (obs::tracer()) {
    // Close the time series at the completion instant.
    obs::Sample last;
    last.ts_ns = completion;
    last.stack_bytes = sim_stack_live_ + sim_stack_pooled_;
    last.ready = static_cast<std::int64_t>(sched_->ready_count());
    trace_samples_.push_back(last);
    std::sort(trace_samples_.begin(), trace_samples_.end(),
              [](const obs::Sample& a, const obs::Sample& b) {
                return a.ts_ns < b.ts_ns;
              });
  }
  fold_levels(kInf);
  stats_.max_live_threads = live_peak_;
  stats_.heap_peak = heap_peak_;
  stats_.stack_peak = sim_stack_peak_;
  // Real stacks back the simulated fibers too, so the watermark is
  // meaningful even under the Sim engine.
  stats_.stack_high_water = StackPool::instance().high_water_bytes();
  stats_.steals = steal_count();
  stats_.tcbs_allocated = tcbs_allocated();
  counters_.add_to(&stats_);
  if (obs::Tracer* tr = obs::tracer()) {
    for (const obs::Sample& s : trace_samples_) tr->add_sample(s);
  }
  return stats_;
}

void SimEngine::maybe_sample(std::uint64_t now_ns) {
  obs::Tracer* tr = obs::tracer();
  if (!tr || now_ns < next_sample_ns_) return;
  if (sample_interval_ns_ == 0) sample_interval_ns_ = tr->config().sample_interval_ns;
  if (sample_interval_ns_ == 0) sample_interval_ns_ = 1000;  // 1 µs virtual
  obs::Sample s;
  s.ts_ns = now_ns;
  s.stack_bytes = sim_stack_live_ + sim_stack_pooled_;
  s.ready = static_cast<std::int64_t>(sched_->ready_count());
  trace_samples_.push_back(s);
  next_sample_ns_ = now_ns + sample_interval_ns_;
  // Run length is unknown up front: when the series fills, halve the
  // resolution and double the interval, keeping memory bounded while the
  // final spacing stays proportional to the run's actual length.
  constexpr std::size_t kMaxSamples = 4096;
  if (trace_samples_.size() >= kMaxSamples) {
    std::vector<obs::Sample> kept;
    kept.reserve(trace_samples_.size() / 2 + 1);
    for (std::size_t i = 0; i < trace_samples_.size(); i += 2) {
      kept.push_back(trace_samples_[i]);
    }
    trace_samples_.swap(kept);
    samples_filled_ = (samples_filled_ + 1) / 2;  // the even ones were filled
    sample_interval_ns_ *= 2;
  }
}

void SimEngine::fold_levels(std::uint64_t horizon) {
  DFTH_CHECK_MSG(horizon >= folded_until_, "virtual time ran backwards");
  // Samples are taken in time order, so the ones now due follow the filled.
  const auto first = trace_samples_.begin() + static_cast<std::ptrdiff_t>(samples_filled_);
  const auto last = std::partition_point(
      first, trace_samples_.end(),
      [horizon](const obs::Sample& s) { return s.ts_ns < horizon; });
  const std::span<obs::Sample> due(first, last);
  // Max simultaneously-active threads: births before deaths at the same
  // instant — a thread exiting exactly when another starts briefly
  // coexists with it.
  live_events_.erase(live_events_.begin(),
                     apply_level(live_events_, folded_until_, horizon,
                                 /*rises_first=*/true, &live_level_, &live_peak_,
                                 due, &obs::Sample::live_threads));
  // Heap high-water: frees before allocations at equal instants, matching
  // allocator reuse, on top of whatever was live when the run started
  // (e.g. input matrices).
  heap_events_.erase(heap_events_.begin(),
                     apply_level(heap_events_, folded_until_, horizon,
                                 /*rises_first=*/false, &heap_level_, &heap_peak_,
                                 due, &obs::Sample::heap_bytes));
  samples_filled_ = static_cast<std::size_t>(last - trace_samples_.begin());
  folded_until_ = horizon;
  fold_at_ = std::max(kFoldMinEvents, 2 * (live_events_.size() + heap_events_.size()));
}

void SimEngine::sim_loop() {
  const std::uint64_t wd_deadline = opts_.watchdog.virtual_deadline_ns;
  // Liveness heartbeat (resil/watchdog.h): when the caller beats, the
  // virtual deadline becomes a window since the last beat, so an
  // intentionally idle-but-armed serving run is never mistaken for a stall.
  std::uint64_t hb_seen = 0;
  std::uint64_t hb_base_ns = 0;
  while (live_ > 0) {
    const int pid = pick_proc();
    VProc& vp = procs_[static_cast<std::size_t>(pid)];
    // vp's clock is the minimum, so no later event precedes it.
    if (live_events_.size() + heap_events_.size() >= fold_at_) {
      fold_levels(vp.clock_ns);
    }
    // Virtual-time stall watchdog: pick_proc returns the minimum clock, so
    // crossing the deadline here means *every* processor is past it and the
    // run is still not finished.
    if (wd_deadline != 0) {
      if (const auto* hb = opts_.watchdog.heartbeat) {
        const std::uint64_t v = hb->load(std::memory_order_relaxed);
        if (v != hb_seen) {
          hb_seen = v;
          hb_base_ns = vp.clock_ns;
        }
      }
      if (vp.clock_ns > hb_base_ns && vp.clock_ns - hb_base_ns > wd_deadline) {
        dump_flight("SimEngine watchdog: virtual-time deadline exceeded",
                    "virtual-time stall watchdog tripped");
      }
    }
    if (vp.running) {
      cur_ = vp.running;
      cur_proc_ = pid;
      in_fiber_ = true;
      for (auto& p : pend_ns_) p = 0;
      ev_ = Ev::None;
      ev_child_ = nullptr;
      ev_guard_ = nullptr;

      context_switch(&loop_ctx_, &cur_->ctx);

      in_fiber_ = false;
      apply_pending(vp);
      loop_now_ns_ = vp.clock_ns;
      DFTH_CHECK_MSG(ev_ != Ev::None, "fiber switched out without an event");
      handle_event(vp, pid);
      cur_ = nullptr;
    } else {
      attempt_dispatch(vp, pid);
    }
    maybe_sample(vp.clock_ns);
  }
}

int SimEngine::pick_proc() const {
  int best = 0;
  for (int i = 1; i < static_cast<int>(procs_.size()); ++i) {
    const auto& a = procs_[static_cast<std::size_t>(i)];
    const auto& b = procs_[static_cast<std::size_t>(best)];
    // Min clock; ties prefer a processor holding a fiber (it must generate
    // the events an equal-clock idle processor is waiting for).
    if (a.clock_ns < b.clock_ns ||
        (a.clock_ns == b.clock_ns && a.running && !b.running)) {
      best = i;
    }
  }
  return best;
}

void SimEngine::apply_pending(VProc& vp) {
  // Everything a fiber charged between scheduling points is pure fiber time:
  // it is the profiler's "work" (advances span too), as opposed to the
  // loop-side clock advances below, which are scheduler overhead.
  obs::edges::work(vp.running, [this] { return pend_total_ns(); });
  vp.clock_ns += pend_total_ns();
  vp.bd.work_us += ns_to_us(pend_ns_[kWork]);
  vp.bd.thread_us += ns_to_us(pend_ns_[kThread]);
  vp.bd.mem_us += ns_to_us(pend_ns_[kMem]);
  vp.bd.sync_us += ns_to_us(pend_ns_[kSync]);
  for (auto& p : pend_ns_) p = 0;
}

Tcb* SimEngine::pick_or_steal(VProc& vp, int pid, std::uint64_t* earliest) {
  if (Tcb* t = sched_->pick_next(pid, vp.clock_ns, earliest)) {
    obs::edges::pick(pid, t, vp.clock_ns);
    sched_lock_own(vp, pid);
    return t;
  }
  const int n = sched_->domains();
  if (n <= 1) return nullptr;
  const int home = sched_->lock_domain(pid);
  const int start = sched_->steal_start(pid);
  for (int i = 0; i < n; ++i) {
    const int victim = (start + i) % n;
    if (victim == home) continue;
    if (Tcb* t = sched_->steal(pid, victim, vp.clock_ns, earliest)) {
      obs::edges::pick(pid, t, vp.clock_ns);
      // The steal serializes on the victim's lock, not the thief's.
      sched_lock_acquire(vp, victim);
      if (sched_->keeps_home()) sched_->rehome(t, pid);
      return t;
    }
  }
  return nullptr;
}

void SimEngine::sched_lock_acquire(VProc& vp, int domain) {
  // The scheduler's global queue is serialized by one lock (paper §6). The
  // lock is busy only *during* queue operations, so a processor is made to
  // wait only when its operation lands within the contention window of the
  // most recent one (near-simultaneous operations queue up behind each
  // other); an operation that maps to an instant further in the virtual
  // past found the lock free back then. (Events are simulated slightly out
  // of virtual-time order — a fiber's long run commits at its end — so the
  // busy horizon can be ahead of this processor's clock without implying
  // the lock was held the whole time.)
  if (lock_free_ns_.size() <= static_cast<std::size_t>(domain)) {
    lock_free_ns_.resize(static_cast<std::size_t>(domain) + 1, 0);
  }
  std::uint64_t& lock_free = lock_free_ns_[static_cast<std::size_t>(domain)];
  const std::uint64_t op = us_to_ns(opts_.cost.sched_op_us);
  const std::uint64_t window = op * static_cast<std::uint64_t>(4 * opts_.nprocs);
  std::uint64_t start = vp.clock_ns;
  if (lock_free > vp.clock_ns && lock_free - vp.clock_ns <= window) {
    start = lock_free;  // genuine contention: queue behind the last op
  }
  const std::uint64_t wait = start - vp.clock_ns;
  vp.bd.sched_us += ns_to_us(wait + op);
  vp.clock_ns = start + op;
  if (start + op > lock_free) lock_free = start + op;
}

void SimEngine::attempt_dispatch(VProc& vp, int pid) {
  // Keep the loop clock fresh: schedulers emit Steal events from inside
  // pick_next through the tracer clock, which reads loop_now_ns_ here.
  loop_now_ns_ = vp.clock_ns;
  const std::uint64_t fire_t0 = vp.clock_ns;
  fire_due_sleepers(vp, pid);
  obs::edges::overhead(0, vp.clock_ns - fire_t0);
  std::uint64_t earliest = kInf;
  const std::uint64_t disp_t0 = vp.clock_ns;
  Tcb* t = pick_or_steal(vp, pid, &earliest);
  if (t) {
    vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
    vp.bd.thread_us += opts_.cost.ctx_switch_us;
    // The lane's accumulated idle time is this dispatch's gap; it burdens
    // the fiber (an ideal scheduler would have run it sooner) and must be
    // consumed whether or not a profiler is installed. The grant runs
    // outside the commit macro, which a build without replay compiles away,
    // and its deadline check reads the loop clock.
    loop_now_ns_ = vp.clock_ns;
    [[maybe_unused]] const std::uint64_t cancel_b = grant(
        t, counters_, pid,
        DispatchCost{vp.clock_ns - disp_t0, vp.pending_gap_ns, /*idle=*/true});
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Dispatch,
                       ::dfth::replay::lane_actor(pid), t->id, cancel_b);
    vp.pending_gap_ns = 0;
    vp.running = t;
    return;
  }

  // Nothing eligible: advance to the next instant anything can change —
  // the earliest future ready time, the nearest timed-wait deadline, or the
  // clock of a processor that holds a fiber (its next event may wake/spawn
  // work).
  std::uint64_t horizon = earliest;
  for (const Sleeper& s : sleepers_) {
    horizon = std::min(horizon, s.deadline_ns);
  }
  for (const auto& other : procs_) {
    if (other.running) horizon = std::min(horizon, other.clock_ns);
  }
  if (horizon == kInf) {
    dump_flight("SimEngine: deadlock — live threads but none runnable",
                "deadlock detected in simulation");
  }
  DFTH_CHECK_MSG(horizon > vp.clock_ns, "simulation failed to make progress");
  vp.bd.idle_us += ns_to_us(horizon - vp.clock_ns);
  vp.pending_gap_ns += horizon - vp.clock_ns;
  vp.clock_ns = horizon;
}

void SimEngine::handle_event(VProc& vp, int pid) {
  switch (ev_) {
    case Ev::Spawn: {
      Tcb* child = ev_child_;
      Tcb* parent = vp.running;
      // Fork edge: the child inherits the parent's span as of the fork
      // instant (the parent's charges were applied before this event, so no
      // pending offset), and carries the observed creation cost as burden.
      obs::edges::fork(pid, parent, child, 0);
      const std::uint64_t fork_t0 = vp.clock_ns;
      const double create_us = child->attr.bound ? opts_.cost.create_bound_us
                                                 : opts_.cost.create_unbound_us;
      vp.clock_ns += us_to_ns(create_us);
      vp.bd.thread_us += create_us;
      const double stack_us = sim_stack_acquire_us(child->attr.stack_size);
      vp.clock_ns += us_to_ns(stack_us);
      vp.bd.mem_us += stack_us;

      sched_lock_own(vp, pid);
      const bool preempt_parent = sched_->dives(parent, child);
      sched_->register_thread(parent, child);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg, parent->id,
                         child->id,
                         preempt_parent ? ::dfth::replay::kSpawnPreempt : 0);
      ++live_;
      count_birth(counters_, child, 0);
      live_events_.emplace_back(vp.clock_ns, +1);
      obs::edges::fork_cost(child, vp.clock_ns - fork_t0);

      if (preempt_parent) {
        // AsyncDF / work stealing: the processor dives into the child.
        ready(parent, pid, vp.clock_ns);
        obs::edges::preempt(At{pid, vp.clock_ns}, parent, obs::kPreemptForkDive);
        child->ready_at_ns = vp.clock_ns;
        vp.running = child;
        vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
        vp.bd.thread_us += opts_.cost.ctx_switch_us;
        loop_now_ns_ = vp.clock_ns;
        [[maybe_unused]] const std::uint64_t cancel_b =
            grant(child, counters_, pid,
                  DispatchCost{us_to_ns(opts_.cost.ctx_switch_us), 0});
        DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Dispatch,
                           ::dfth::replay::lane_actor(pid), child->id,
                           ::dfth::replay::kDispatchForkDive | cancel_b);
      } else {
        // FIFO / LIFO: the child waits its turn; the parent continues.
        ready(child, pid, vp.clock_ns);
      }
      break;
    }

    case Ev::Exit: {
      Tcb* t = vp.running;
      const std::uint64_t exit_t0 = vp.clock_ns;
      sched_lock_own(vp, pid);
      sched_->unregister_thread(t);
      Tcb* joiner = hand_off(t, /*log=*/false);
      t->state.store(ThreadState::Done, std::memory_order_relaxed);
      --live_;
      live_events_.emplace_back(vp.clock_ns, -1);
      retire_stack(t);
      sim_stack_release(t->attr.stack_size);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitSched, t->id, t->id, 0);
      obs::edges::overhead(t->id, vp.clock_ns - exit_t0);
      // Finalize the span before the joiner wake below reads it.
      obs::edges::exit(At{pid, vp.clock_ns}, t);
      loop_now_ns_ = vp.clock_ns;
      cur_proc_ = pid;
      if (joiner) wake(joiner);
      vp.running = nullptr;
      release(t, pid);
      break;
    }

    case Ev::Block: {
      Tcb* t = vp.running;
      DFTH_CHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
      obs::edges::block(At{pid, vp.clock_ns}, t);
      if (ev_guard_) ev_guard_->unlock();
      vp.running = nullptr;
      break;
    }

    case Ev::Yield:
    case Ev::QuotaPreempt:
    case Ev::OomPreempt: {
      Tcb* t = vp.running;
      const std::uint64_t pre_t0 = vp.clock_ns;
      vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
      vp.bd.thread_us += opts_.cost.ctx_switch_us;
      sched_lock_own(vp, pid);
      const std::uint64_t pre_ns = vp.clock_ns - pre_t0;
      ready(t, pid, vp.clock_ns);
      obs::edges::preempt(At{pid, vp.clock_ns}, t,
                          ev_ == Ev::QuotaPreempt  ? obs::kPreemptQuota
                          : ev_ == Ev::OomPreempt ? obs::kPreemptOom
                                                  : obs::kPreemptYield,
                          pre_ns);
      vp.running = nullptr;
      break;
    }

    case Ev::SyncPause:
      // The fiber keeps its processor; nothing to do — the clock advance
      // from apply_pending() already reordered it among the processors.
      break;

    case Ev::None:
      DFTH_CHECK(false);
  }
}

void SimEngine::dump_flight(const char* reason, const char* what) {
  resil::FlightInfo info;
  info.reason = reason;
  info.live_threads = live_;
  // Single host thread: the snapshot is exact, no locks involved.
  info.sched_state_consistent = true;
  for (int i = 0; i < static_cast<int>(procs_.size()); ++i) {
    info.lanes.push_back({i, procs_[static_cast<std::size_t>(i)].running});
  }
  dump_and_abort(info, what);
}

}  // namespace dfth
