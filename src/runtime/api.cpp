#include "runtime/api.h"

#include <atomic>
#include <cstring>

#include "analyze/auditor.h"
#include "analyze/validation.h"
#include "obs/edges.h"
#include "replay/session.h"
#include "resil/faults.h"
#include "runtime/real_engine.h"
#include "runtime/sim_engine.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/log.h"
#include "util/timer.h"

namespace dfth {
namespace {

Engine* g_engine = nullptr;

// Builds the record or replay session `opts` asks for (nullptr when neither
// path is set), rejecting malformed logs and header/option mismatches with a
// specific diagnostic before any engine state exists. On replay the log's
// embedded fault plan replaces opts->fault_plan — the recorded failure
// schedule is part of the schedule being reproduced.
std::unique_ptr<replay::Session> open_replay_session(RuntimeOptions* opts) {
  if (opts->record_path.empty() && opts->replay_path.empty()) return nullptr;
  DFTH_CHECK_MSG(opts->record_path.empty() || opts->replay_path.empty(),
                 "record_path and replay_path are mutually exclusive");

  if (!opts->replay_path.empty()) {
    replay::LoadedLog log;
    std::string error;
    if (!replay::load_log(opts->replay_path, &log, &error)) {
      DFTH_LOG_ERROR("replay: %s", error.c_str());
      DFTH_CHECK_MSG(false, "replay log rejected — see diagnostic above");
    }
    const replay::Mode mode = opts->engine == EngineKind::Real
                                  ? replay::Mode::Replay
                                  : replay::Mode::CrossReplay;
    if (mode == replay::Mode::Replay) {
      // Decision-for-decision pinning only makes sense when the run being
      // driven is shaped exactly like the recorded one.
      const replay::LogHeader& h = log.header;
      const bool match =
          h.engine == static_cast<std::uint32_t>(EngineKind::Real) &&
          h.sched == static_cast<std::uint32_t>(opts->sched) &&
          h.nprocs == static_cast<std::uint32_t>(opts->nprocs) &&
          h.cluster_size == static_cast<std::uint32_t>(opts->cluster_size) &&
          h.seed == opts->seed && h.mem_quota == opts->mem_quota &&
          h.default_stack_size == opts->default_stack_size;
      if (!match) {
        DFTH_LOG_ERROR(
            "replay: '%s' was recorded with engine=%u sched=%u nprocs=%u "
            "cluster=%u seed=%llu quota=%llu stack=%llu, but this run asks "
            "for sched=%u nprocs=%u cluster=%u seed=%llu quota=%llu "
            "stack=%llu — pass identical options (or EngineKind::Sim for a "
            "cross-replay)",
            opts->replay_path.c_str(), h.engine, h.sched, h.nprocs,
            h.cluster_size, static_cast<unsigned long long>(h.seed),
            static_cast<unsigned long long>(h.mem_quota),
            static_cast<unsigned long long>(h.default_stack_size),
            static_cast<std::uint32_t>(opts->sched),
            static_cast<std::uint32_t>(opts->nprocs),
            static_cast<std::uint32_t>(opts->cluster_size),
            static_cast<unsigned long long>(opts->seed),
            static_cast<unsigned long long>(opts->mem_quota),
            static_cast<unsigned long long>(opts->default_stack_size));
        DFTH_CHECK_MSG(false, "replay log does not match the run's options");
      }
      if (log.header.clean_end == 0) {
        DFTH_LOG_WARN(
            "replay: '%s' is an abort-time partial log (%llu events) — the "
            "run will free-run once the log is exhausted",
            opts->replay_path.c_str(),
            static_cast<unsigned long long>(log.header.event_count));
      }
    }
    auto s = replay::Session::start_replay(std::move(log), mode,
                                           opts->replay_path);
    opts->fault_plan = s->embedded_plan();
    return s;
  }

  replay::LogHeader h{};
  h.engine = static_cast<std::uint32_t>(opts->engine);
  h.sched = static_cast<std::uint32_t>(opts->sched);
  h.nprocs = static_cast<std::uint32_t>(opts->nprocs);
  h.cluster_size = static_cast<std::uint32_t>(opts->cluster_size);
  h.seed = opts->seed;
  h.mem_quota = opts->mem_quota;
  h.default_stack_size = opts->default_stack_size;
  std::strncpy(h.tag, opts->record_tag.c_str(), sizeof(h.tag) - 1);
  if (opts->fault_plan != nullptr) {
    static_assert(resil::kNumFaultSites <= replay::kMaxFaultSitesWire,
                  "widen LogHeader::fault_sites for the new fault site");
    h.has_fault_plan = 1;
    h.fault_seed = opts->fault_plan->seed;
    for (int i = 0; i < resil::kNumFaultSites; ++i) {
      const resil::SiteSpec& spec = opts->fault_plan->sites[i];
      h.fault_sites[i].every_nth = spec.every_nth;
      h.fault_sites[i].probability = spec.probability;
      h.fault_sites[i].skip_first = spec.skip_first;
      h.fault_sites[i].max_failures = spec.max_failures;
    }
  }
  // One writer lane per kernel worker plus the shared external lane (host,
  // supervisor, bound threads). The simulator runs on one host thread.
  const int lanes =
      (opts->engine == EngineKind::Real ? opts->nprocs : 1) + 1;
  return replay::Session::start_record(h, lanes, opts->record_path);
}

}  // namespace


// Deliberately not inlined (see engine.h): a fiber resumed on a different
// kernel thread must re-read the engine/current state through a call.
__attribute__((noinline)) Engine* engine() { return g_engine; }

namespace detail {
void set_engine(Engine* e) { g_engine = e; }
}  // namespace detail

bool in_runtime() { return engine() != nullptr; }

RunStats run(const RuntimeOptions& opts, const std::function<void()>& main_fn) {
  DFTH_CHECK_MSG(!in_runtime(), "dfth::run is not reentrant");
  DFTH_CHECK(opts.nprocs >= 1);

  // The effective options may differ from the caller's: a replayed log's
  // embedded fault plan overrides fault_plan so the recorded failure
  // schedule reproduces.
  RuntimeOptions effective = opts;
  std::unique_ptr<replay::Session> session = open_replay_session(&effective);
  // Installed before engine construction: RealEngine's constructor consults
  // the active session to substitute the schedule-pinned ReplayScheduler.
  replay::set_active(session.get());

  // Validation is read once, before the engine exists: with the switch on,
  // make_scheduler (in the engine's constructor) audits the policy, and the
  // sync primitives report to the lock graph until this run returns.
  const bool validated = analyze::validation();

  std::unique_ptr<Engine> eng;
  if (effective.engine == EngineKind::Sim) {
    eng = std::make_unique<SimEngine>(effective);
  } else {
    eng = std::make_unique<RealEngine>(effective);
  }

  // Arm the caller's fault plan for this run. Fault stats are deltas, exact
  // even for a harness that keeps the injector armed across runs.
  auto& inj = resil::FaultInjector::instance();
  if (effective.fault_plan != nullptr) inj.arm(*effective.fault_plan);
  const std::uint64_t injected0 = inj.injected_total();
  const std::uint64_t recovered0 = inj.recovered_total();

  // Every observer is installed here and nowhere else. The tracer's events
  // carry engine-clock ns since the run began (virtual in Sim).
  Engine* e = eng.get();
  obs::edges::begin_run(effective.tracer, effective.profiler, validated,
                        effective.engine == EngineKind::Sim,
                        e->trace_lanes(),
                        [e, t0 = e->now_ns()] { return e->now_ns() - t0; });

  detail::set_engine(e);
  RunStats stats = e->run(main_fn);
  detail::set_engine(nullptr);
  stats.faults_injected = inj.injected_total() - injected0;
  stats.faults_recovered = inj.recovered_total() - recovered0;
  obs::edges::end_run(&stats);  // the tracer copies the totals above
  if (effective.fault_plan != nullptr) inj.disarm();
  if (session) {
    std::string error;
    if (!session->finish_record(/*clean=*/true, &error)) {
      DFTH_LOG_ERROR("replay: %s", error.c_str());
      DFTH_CHECK_MSG(false, "failed to write the schedule log");
    }
    replay::set_active(nullptr);
  }
  return stats;
}

Thread spawn(std::function<void*()> fn, const Attr& attr,
             std::source_location site) {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "spawn outside dfth::run");
  Tcb* child = e->spawn(std::move(fn), attr, /*is_dummy=*/false,
                        site.file_name(), static_cast<int>(site.line()));
  // The child's handle party pins it until here, although it may already
  // run on another lane: a thread created detached drops it now.
  Thread t(child);
  if (attr.detached) e->detach(child);
  return t;
}

void* join(Thread t) {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "join outside dfth::run");
  DFTH_CHECK_MSG(t.valid(), "join of invalid thread handle");
  // A recycled Tcb has id 0 or a later thread's id.
  DFTH_CHECK_MSG(t.tcb_->id == t.id_, "thread joined twice, or joined after a detach");
  // The engine reports the exit→joiner edge: everything the child (and its
  // whole joined subtree) did happens-before the code after this join.
  return e->join(t.tcb_);
}

void detach(Thread t) {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "detach outside dfth::run");
  DFTH_CHECK_MSG(t.valid(), "detach of invalid thread handle");
  DFTH_CHECK_MSG(t.tcb_->id == t.id_, "detach of a joined or detached thread");
  e->detach(t.tcb_);
}

void yield() {
  if (Engine* e = engine()) e->yield();
}

std::uint64_t self_id() {
  Engine* e = engine();
  if (!e) return 0;
  Tcb* cur = e->current();
  return cur ? cur->id : 0;
}

bool cancel_requested() {
  Engine* e = engine();
  if (!e) return false;
  Tcb* cur = e->current();
  if (!cur || cur->cancel == nullptr) return false;
  if (auto* rs = replay::active()) {
    const std::uint64_t actor = replay::self_actor();
    if (rs->mode() == replay::Mode::Replay) {
      // Pinned replay: the recorded observation wins over the live flag.
      // The poll races with dispatch-time expiry on another lane, so the
      // live read can land on either side of the recorded CancelFire;
      // returning the logged value keeps control flow (and therefore the
      // spawn structure downstream of this branch) identical.
      if (rs->gate(actor) == replay::Session::Turn::Mine) {
        std::uint64_t observed = 0;
        if (rs->head_is(replay::EvKind::CancelCheck, actor, &observed)) {
          rs->commit(replay::EvKind::CancelCheck, actor, observed, 0);
          return observed != 0;
        }
        // Our turn but the log expected a different event here: commit the
        // live value so the session diagnoses the divergence and aborts.
        const std::uint64_t live = cur->cancel->is_cancelled() ? 1 : 0;
        rs->commit(replay::EvKind::CancelCheck, actor, live, 0);
        return live != 0;
      }
      // Log exhausted (abort-time partial log): free-run on the live flag.
      return cur->cancel->is_cancelled();
    }
    // Record: log what this poll observed. CrossReplay: commit() ignores
    // the event — virtual time makes the Sim outcome deterministic anyway.
    const bool v = cur->cancel->is_cancelled();
    rs->commit(replay::EvKind::CancelCheck, actor, v ? 1 : 0, 0);
    return v;
  }
  return cur->cancel->is_cancelled();
}

std::uint64_t now_ns() {
  if (Engine* e = engine()) {
    // The wall clock is the archetypal raced read: serve-layer control flow
    // (deadline checks, arrival pacing, retry due times) branches on it.
    // Pin it so strict Real replay re-takes every recorded branch;
    // observe_u64 is a passthrough on Sim (virtual time is deterministic)
    // and when no session is installed.
    return replay::observe_u64(replay::kObsClockNs, e->now_ns());
  }
  return steady_now_ns();
}

namespace {

// The calling thread's request scope, if it has one, pays `delta` bytes.
void charge_scope(Engine* e, std::int64_t delta) {
  Tcb* cur = e->current();
  if (cur && cur->cancel != nullptr && cur->cancel->alloc_charge != nullptr) {
    cur->cancel->alloc_charge->fetch_add(delta, std::memory_order_relaxed);
  }
}

// Forks `count` dummy (no-op) threads as a binary tree — the paper forks the
// δ threads "as a binary tree instead of a δ-way fork" because the Pthreads
// interface only has a binary fork. The tree node itself is one of the
// `count` dummies.
Thread spawn_dummy_subtree(std::uint64_t count) {
  Attr attr;
  attr.stack_size = 8 << 10;  // dummies take the minimal stack
  Engine* e = engine();
  Tcb* tcb = e->spawn(
      [count]() -> void* {
        const std::uint64_t rest = count - 1;
        if (rest > 0) {
          const std::uint64_t left = rest / 2;
          const std::uint64_t right = rest - left;
          Thread a, b;
          if (left > 0) a = spawn_dummy_subtree(left);
          if (right > 0) b = spawn_dummy_subtree(right);
          if (left > 0) join(a);
          if (right > 0) join(b);
        }
        return nullptr;
      },
      attr, /*is_dummy=*/true, "<dummy>", 0);
  return Thread(tcb);
}

void insert_dummy_threads(std::uint64_t count) {
  if (count == 0) return;
  Thread root = spawn_dummy_subtree(count);
  join(root);
}

}  // namespace

const char* to_string(DfStatus status) {
  switch (status) {
    case DfStatus::kOk: return "ok";
    case DfStatus::kNoMem: return "no-mem";
    case DfStatus::kTimedOut: return "timed-out";
    case DfStatus::kOverloaded: return "overloaded";
  }
  return "?";
}

void* df_malloc(std::size_t bytes) { return df_try_malloc(bytes, nullptr); }

void* df_try_malloc(std::size_t bytes, DfStatus* status) {
  Engine* e = engine();
  if (e && e->uses_alloc_quota()) {
    const std::size_t quota = e->quota_bytes();
    if (quota > 0 && bytes > quota) {
      // §4 item 2: "If a thread contains an instruction that allocates
      // m > K bytes, δ dummy threads are inserted in parallel by the
      // library before the allocation, where δ is proportional to m/K."
      insert_dummy_threads((bytes + quota - 1) / quota);
    }
    // Audited after the dummy-tree insertion so the δ credit those dummies
    // earn at registration is visible to the oversized-allocation check.
    // Against the K the insertion used: another thread's OOM recovery may
    // have shrunk it since.
    if (analyze::InvariantAuditor* aud = analyze::active_auditor()) {
      aud->on_alloc(e->current(), bytes, quota);
    }
  }
  std::int64_t fresh = 0;
  bool injected = false;
  void* p = TrackedHeap::instance().allocate_ex(bytes, &fresh,
                                                /*probe_faults=*/true, &injected);
  // OOM recovery. Retries skip the dummy-tree/auditor preamble above: the δ
  // credit was already granted for this allocation, and re-auditing would
  // double-count it. Each failed attempt asks the engine to recover
  // (preempt AsyncDF-style, shrink the effective quota, back off); the
  // engine bounds the attempts and we surface kNoMem once it gives up.
  // Retries also skip the fault-site probe: one allocation request is one
  // site evaluation, so an injected failure is transient by construction —
  // re-probing let an aggressive plan fail every bounded retry and surface
  // kNoMem into code that treats allocation as infallible.
  for (int attempt = 0; p == nullptr; ++attempt) {
    if (e == nullptr || !e->on_alloc_failed(bytes, attempt)) {
      // Backpressure vs. terminal failure: while other threads hold tracked
      // bytes, their frees can make a retry succeed — that is kOverloaded,
      // the admission controller's shed signal. Only an empty tracked heap
      // (or no engine to preempt through) means the allocation can never
      // succeed and the caller gets terminal kNoMem.
      if (status) {
        *status = (e != nullptr && TrackedHeap::instance().live_bytes() > 0)
                      ? DfStatus::kOverloaded
                      : DfStatus::kNoMem;
      }
      return nullptr;
    }
    p = TrackedHeap::instance().allocate_ex(bytes, &fresh,
                                            /*probe_faults=*/false);
  }
  if (injected) DFTH_FAULT_RECOVERED(resil::FaultSite::kHeapAlloc);
  if (e) {
    charge_scope(e, static_cast<std::int64_t>(TrackedHeap::allocated_size(p)));
    e->on_alloc(bytes, fresh);  // may quota-preempt the calling thread
  }
  if (status) *status = DfStatus::kOk;
  return p;
}

void df_free(void* p) {
  if (!p) return;
  const std::size_t bytes = TrackedHeap::allocated_size(p);
  TrackedHeap::instance().deallocate(p);
  if (Engine* e = engine()) {
    charge_scope(e, -static_cast<std::int64_t>(bytes));
    e->on_free(bytes);
  }
}

#if DFTH_RACE
void df_read(const void* p, std::size_t bytes, const char* site) {
  Engine* e = engine();
  if (!e) return;
  if (Tcb* cur = e->current()) {
    analyze::RaceDetector::instance().on_read(cur, p, bytes, site);
  }
}

void df_write(const void* p, std::size_t bytes, const char* site) {
  Engine* e = engine();
  if (!e) return;
  if (Tcb* cur = e->current()) {
    analyze::RaceDetector::instance().on_write(cur, p, bytes, site);
  }
}
#endif

void annotate_work(std::uint64_t ops) {
  if (ops == 0) return;
  if (Engine* e = engine()) e->add_work(ops);
}

void annotate_touch(const std::uint32_t* block_ids, std::size_t count) {
  if (count == 0) return;
  if (Engine* e = engine()) e->touch(block_ids, count);
}

namespace {
std::atomic<std::uint32_t> g_next_tls_key{1};
}

std::uint32_t tls_create_key() {
  return g_next_tls_key.fetch_add(1, std::memory_order_relaxed);
}

void tls_set(std::uint32_t key, void* value) {
  Engine* e = engine();
  DFTH_CHECK_MSG(e && e->current(), "tls_set outside a thread");
  auto& tls = e->current()->tls;
  if (tls.size() <= key) tls.resize(key + 1, nullptr);
  tls[key] = value;
}

void* tls_get(std::uint32_t key) {
  Engine* e = engine();
  DFTH_CHECK_MSG(e && e->current(), "tls_get outside a thread");
  const auto& tls = e->current()->tls;
  return key < tls.size() ? tls[key] : nullptr;
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Sim: return "sim";
    case EngineKind::Real: return "real";
  }
  return "?";
}

}  // namespace dfth
