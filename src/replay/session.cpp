#include "replay/session.h"

#include <chrono>
#include <csignal>

#include "runtime/engine.h"
#include "threads/tcb.h"
#include "util/check.h"
#include "util/log.h"
#include "util/timer.h"

namespace dfth::replay {
namespace {

// Replay abort threshold: no cursor progress for this long means the run has
// diverged into a schedule the log cannot drive (or a fiber is stuck outside
// any instrumented section). Abort with the head record rather than hang.
constexpr std::uint64_t kStallNs = 10ull * 1000 * 1000 * 1000;

thread_local int g_tls_lane = -1;

// Previous SIGABRT disposition, restored when the recording session dies.
void (*g_prev_abort)(int) = SIG_DFL;

void on_abort(int) {
  // Best-effort: persist the in-flight record log so the abort itself is
  // replayable. abort() re-raises with the default action after we return.
  if (Session* s = active()) s->flush_partial();
}

}  // namespace

void set_active(Session* s) {
  detail::g_active.store(s, std::memory_order_release);
}

void bind_lane(int lane) { g_tls_lane = lane; }

std::uint64_t self_actor() {
  if (Engine* e = engine()) {
    if (Tcb* cur = e->current()) return cur->id;
  }
  return kActorHost;
}

bool next_timer_claim(std::uint64_t* tid) {
  Session* s = active();
  return s != nullptr && s->mode() == Mode::Replay &&
         s->head_is(EvKind::TimeoutClaim, kActorTimer, tid);
}

std::uint64_t observe_u64(std::uint64_t site, std::uint64_t live) {
  Session* rs = active();
  if (rs == nullptr) return live;
  // Sim runs are deterministic under virtual time and always cross-replay;
  // pinning them would only bloat the log with records CrossReplay ignores.
  Engine* e = engine();
  if (e == nullptr || e->kind() != EngineKind::Real) return live;
  const std::uint64_t actor = self_actor();
  if (rs->mode() == Mode::Replay) {
    if (rs->replay_exhausted()) return live;
    if (rs->gate(actor) == Session::Turn::Mine) {
      std::uint64_t a = 0, seq = 0, b = 0;
      if (rs->head_is(EvKind::Observe, actor, &a, &seq, &b) && b == site) {
        rs->commit(EvKind::Observe, actor, a, site);
        return a;
      }
      // Our turn but the log expected a different event (or a different
      // site): commit the live value so the session diagnoses the
      // divergence and aborts with both sides printed.
      rs->commit(EvKind::Observe, actor, live, site);
      return live;
    }
    // Log exhausted between the check above and the gate: free-run.
    return live;
  }
  // Record appends; CrossReplay's commit() is a no-op.
  rs->commit(EvKind::Observe, actor, live, site);
  return live;
}

Session::Session(Mode mode, std::string path)
    : mode_(mode), path_(std::move(path)) {}

std::unique_ptr<Session> Session::start_record(const LogHeader& header, int lanes,
                                               std::string path) {
  DFTH_CHECK(lanes >= 1);
  auto s = std::unique_ptr<Session>(new Session(Mode::Record, std::move(path)));
  s->header_ = header;
  s->lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) s->lanes_.push_back(std::make_unique<LaneBuf>());
  g_prev_abort = std::signal(SIGABRT, &on_abort);
  return s;
}

std::unique_ptr<Session> Session::start_replay(LoadedLog log, Mode mode,
                                               std::string path) {
  DFTH_CHECK(mode == Mode::Replay || mode == Mode::CrossReplay);
  auto s = std::unique_ptr<Session>(new Session(mode, std::move(path)));
  s->header_ = log.header;
  s->log_ = std::move(log);
  s->last_advance_ns_ = steady_now_ns();
  for (const Record& r : s->log_.annotations) {
    if (r.kind == static_cast<std::uint16_t>(EvKind::Steal)) {
      s->steal_fifos_[r.actor].push_back(r);
    }
  }
  if (s->header_.has_fault_plan) {
    s->has_plan_ = true;
    s->plan_.seed = s->header_.fault_seed;
    for (int i = 0; i < resil::kNumFaultSites && i < kMaxFaultSitesWire; ++i) {
      const SiteSpecWire& w = s->header_.fault_sites[i];
      s->plan_.sites[i].every_nth = w.every_nth;
      s->plan_.sites[i].probability = w.probability;
      s->plan_.sites[i].skip_first = w.skip_first;
      s->plan_.sites[i].max_failures = w.max_failures;
    }
  }
  return s;
}

Session::~Session() {
  if (mode_ == Mode::Record) std::signal(SIGABRT, g_prev_abort);
}

const resil::FaultPlan* Session::embedded_plan() const {
  return has_plan_ ? &plan_ : nullptr;
}

void Session::divergence(const char* what, EvKind kind, std::uint64_t actor,
                         std::uint64_t a, std::uint64_t b) const {
  // Called with cursor_mu_ held; we only read and then abort.
  if (cursor_ < log_.ordered.size()) {
    const Record& h = log_.ordered[cursor_];
    DFTH_LOG_ERROR(
        "replay divergence (%s) at ordered event %zu/%zu of '%s': log has "
        "{seq=%llu kind=%s actor=%llx a=%llu b=%llu}, run performed "
        "{kind=%s actor=%llx a=%llu b=%llu}",
        what, cursor_, log_.ordered.size(), path_.c_str(),
        static_cast<unsigned long long>(h.seq),
        to_string(static_cast<EvKind>(h.kind)),
        static_cast<unsigned long long>(h.actor),
        static_cast<unsigned long long>(h.a),
        static_cast<unsigned long long>(h.b), to_string(kind),
        static_cast<unsigned long long>(actor),
        static_cast<unsigned long long>(a),
        static_cast<unsigned long long>(b));
  }
  DFTH_CHECK_MSG(false, "replay diverged from the recorded schedule");
}

Session::Turn Session::gate(std::uint64_t actor) {
  if (mode_ != Mode::Replay) return Turn::Mine;
  std::unique_lock<std::mutex> lk(cursor_mu_);
  while (cursor_ < log_.ordered.size()) {
    if (log_.ordered[cursor_].actor == actor) return Turn::Mine;
    if (cursor_cv_.wait_for(lk, std::chrono::milliseconds(100)) ==
        std::cv_status::timeout) {
      if (steady_now_ns() - last_advance_ns_ > kStallNs &&
          cursor_ < log_.ordered.size()) {
        const Record& h = log_.ordered[cursor_];
        DFTH_LOG_ERROR(
            "replay stalled at ordered event %zu/%zu of '%s': waiting actor "
            "%llx, but the log's next decision is {seq=%llu kind=%s "
            "actor=%llx a=%llu b=%llu} and its actor made no progress",
            cursor_, log_.ordered.size(), path_.c_str(),
            static_cast<unsigned long long>(actor),
            static_cast<unsigned long long>(h.seq),
            to_string(static_cast<EvKind>(h.kind)),
            static_cast<unsigned long long>(h.actor),
            static_cast<unsigned long long>(h.a),
            static_cast<unsigned long long>(h.b));
        DFTH_CHECK_MSG(false, "replay stalled — schedule cannot be driven");
      }
    }
  }
  return Turn::Free;
}

std::string Session::position_summary() const {
  if (mode_ != Mode::Replay) return std::string();
  std::lock_guard<std::mutex> lk(cursor_mu_);
  char buf[224];
  if (cursor_ >= log_.ordered.size()) {
    std::snprintf(buf, sizeof(buf),
                  "ordered log exhausted (%zu events) — was free-running",
                  log_.ordered.size());
    return buf;
  }
  const Record& h = log_.ordered[cursor_];
  std::snprintf(
      buf, sizeof(buf),
      "cursor at ordered event %zu/%zu; next decision {seq=%llu kind=%s "
      "actor=%llx a=%llu b=%llu}",
      cursor_, log_.ordered.size(),
      static_cast<unsigned long long>(h.seq),
      to_string(static_cast<EvKind>(h.kind)),
      static_cast<unsigned long long>(h.actor),
      static_cast<unsigned long long>(h.a),
      static_cast<unsigned long long>(h.b));
  return buf;
}

void Session::commit(EvKind kind, std::uint64_t actor, std::uint64_t a,
                     std::uint64_t b) {
  if (mode_ == Mode::Record) {
    const int lane = (g_tls_lane >= 0 &&
                      g_tls_lane < static_cast<int>(lanes_.size()))
                         ? g_tls_lane
                         : static_cast<int>(lanes_.size()) - 1;
    LaneBuf& buf = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lg(buf.mu);
    Record r;
    r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    r.actor = actor;
    r.kind = static_cast<std::uint16_t>(kind);
    r.lane = static_cast<std::uint32_t>(lane);
    r.a = a;
    r.b = b;
    buf.records.push_back(r);
    return;
  }
  if (mode_ != Mode::Replay) return;
  std::lock_guard<std::mutex> lk(cursor_mu_);
  if (cursor_ >= log_.ordered.size()) return;  // exhausted: free-run
  const Record& h = log_.ordered[cursor_];
  if (h.actor != actor || h.kind != static_cast<std::uint16_t>(kind)) {
    divergence("event mismatch", kind, actor, a, b);
  }
  if (h.a != a || h.b != b) divergence("payload mismatch", kind, actor, a, b);
  ++cursor_;
  last_advance_ns_ = steady_now_ns();
  cursor_cv_.notify_all();
}

void Session::commit_batch(const Record* recs, std::size_t n) {
  if (mode_ == Mode::Record) {
    const int lane = (g_tls_lane >= 0 &&
                      g_tls_lane < static_cast<int>(lanes_.size()))
                         ? g_tls_lane
                         : static_cast<int>(lanes_.size()) - 1;
    LaneBuf& buf = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lg(buf.mu);
    const std::uint64_t base = seq_.fetch_add(n, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      Record r = recs[i];
      r.seq = base + i;
      r.lane = static_cast<std::uint32_t>(lane);
      buf.records.push_back(r);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    commit(static_cast<EvKind>(recs[i].kind), recs[i].actor, recs[i].a,
           recs[i].b);
  }
}

void SectionLog::stage(EvKind kind, std::uint64_t actor, std::uint64_t a,
                       std::uint64_t b) {
  if (session_->mode() != Mode::Record) {
    session_->commit(kind, actor, a, b);
    return;
  }
  DFTH_CHECK(n_ < kMaxRecords);
  Record& r = recs_[n_++];
  r.actor = actor;
  r.kind = static_cast<std::uint16_t>(kind);
  r.a = a;
  r.b = b;
}

std::uint64_t Session::alloc_tid(std::atomic<std::uint64_t>& next,
                                 std::uint64_t actor) {
  if (mode_ == Mode::CrossReplay) return next++;
  gate(actor);
  std::lock_guard<std::mutex> lg(tid_order_mu_);
  const std::uint64_t tid = next++;
  commit(EvKind::TidAlloc, actor, tid, 0);
  return tid;
}

void Session::commit_sync(std::uint64_t actor, const void* obj, SyncOp op) {
  if (mode_ == Mode::Record) {
    std::uint64_t id;
    {
      std::lock_guard<std::mutex> lg(obj_mu_);
      auto it = obj_ids_.find(obj);
      if (it == obj_ids_.end()) {
        id = next_obj_id_++;
        obj_ids_.emplace(obj, id);
      } else {
        id = it->second;
      }
    }
    commit(EvKind::Sync, actor, id, static_cast<std::uint64_t>(op));
    return;
  }
  if (mode_ != Mode::Replay) return;
  std::lock_guard<std::mutex> lk(cursor_mu_);
  if (cursor_ >= log_.ordered.size()) return;
  const Record& h = log_.ordered[cursor_];
  if (h.actor != actor || h.kind != static_cast<std::uint16_t>(EvKind::Sync)) {
    divergence("sync event mismatch", EvKind::Sync, actor, 0,
               static_cast<std::uint64_t>(op));
  }
  {
    // Positional address binding: the replay run's object addresses differ
    // from the recorded ones; first use under a matching head adopts the
    // logged id, later uses must keep it.
    std::lock_guard<std::mutex> lg(obj_mu_);
    auto it = obj_ids_.find(obj);
    if (it == obj_ids_.end()) {
      obj_ids_.emplace(obj, h.a);
    } else if (it->second != h.a) {
      divergence("sync object binding", EvKind::Sync, actor, it->second,
                 static_cast<std::uint64_t>(op));
    }
  }
  if (h.b != static_cast<std::uint64_t>(op)) {
    divergence("sync op mismatch", EvKind::Sync, actor, h.a,
               static_cast<std::uint64_t>(op));
  }
  ++cursor_;
  last_advance_ns_ = steady_now_ns();
  cursor_cv_.notify_all();
}

void Session::forget_sync(const void* obj) {
  std::lock_guard<std::mutex> lg(obj_mu_);
  obj_ids_.erase(obj);
}

void Session::annotate_steal(int lane, std::uint64_t tid, std::uint64_t victim) {
  if (mode_ != Mode::Record) return;
  const int idx = (lane >= 0 && lane < static_cast<int>(lanes_.size()))
                      ? lane
                      : static_cast<int>(lanes_.size()) - 1;
  LaneBuf& buf = *lanes_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lg(buf.mu);
  Record r;
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  r.actor = lane_actor(lane);
  r.kind = static_cast<std::uint16_t>(EvKind::Steal);
  r.flags = kFlagAnnotation;
  r.lane = static_cast<std::uint32_t>(idx);
  r.a = tid;
  r.b = victim;
  buf.records.push_back(r);
}

void Session::annotate_cancel_fire(int lane, std::uint64_t tid) {
  if (mode_ != Mode::Record) return;
  const int idx = (lane >= 0 && lane < static_cast<int>(lanes_.size()))
                      ? lane
                      : static_cast<int>(lanes_.size()) - 1;
  LaneBuf& buf = *lanes_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lg(buf.mu);
  Record r;
  r.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  r.actor = lane_actor(lane);
  r.kind = static_cast<std::uint16_t>(EvKind::CancelFire);
  r.flags = kFlagAnnotation;
  r.lane = static_cast<std::uint32_t>(idx);
  r.a = tid;
  r.b = 0;
  buf.records.push_back(r);
}

bool Session::consume_steal(int lane, std::uint64_t tid, std::uint64_t before_seq,
                            std::uint64_t* victim) {
  if (mode_ != Mode::Replay) return false;
  std::lock_guard<std::mutex> lg(steal_mu_);
  auto it = steal_fifos_.find(lane_actor(lane));
  if (it == steal_fifos_.end() || it->second.empty()) return false;
  const Record& front = it->second.front();
  if (front.seq >= before_seq || front.a != tid) return false;
  if (victim != nullptr) *victim = front.b;
  it->second.pop_front();
  return true;
}

bool Session::head_is(EvKind kind, std::uint64_t actor, std::uint64_t* a,
                      std::uint64_t* seq, std::uint64_t* b) const {
  if (mode_ != Mode::Replay) return false;
  std::lock_guard<std::mutex> lk(cursor_mu_);
  if (cursor_ >= log_.ordered.size()) return false;
  const Record& h = log_.ordered[cursor_];
  if (h.kind != static_cast<std::uint16_t>(kind) || h.actor != actor) return false;
  if (a != nullptr) *a = h.a;
  if (seq != nullptr) *seq = h.seq;
  if (b != nullptr) *b = h.b;
  return true;
}

bool Session::replay_exhausted() const {
  if (mode_ != Mode::Replay) return true;
  std::lock_guard<std::mutex> lk(cursor_mu_);
  return cursor_ >= log_.ordered.size();
}

std::uint64_t Session::spawn_flags_hint(std::uint64_t fallback) const {
  if (mode_ != Mode::Replay) return fallback;
  std::lock_guard<std::mutex> lk(cursor_mu_);
  if (cursor_ >= log_.ordered.size()) return fallback;
  const Record& h = log_.ordered[cursor_];
  if (h.kind != static_cast<std::uint16_t>(EvKind::SpawnReg)) return fallback;
  return h.b;
}

bool Session::finish_record(bool clean, std::string* error) {
  if (mode_ != Mode::Record) return true;
  if (flushed_.exchange(true, std::memory_order_acq_rel)) {
    // An abort-path flush already persisted the log.
    return true;
  }
  header_.clean_end = clean ? 1 : 0;
  std::vector<std::vector<Record>> blocks;
  blocks.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lg(lane->mu);
    blocks.push_back(lane->records);
  }
  return save_log(path_, header_, blocks, error);
}

void Session::flush_partial() {
  if (mode_ != Mode::Record) return;
  if (flushed_.exchange(true, std::memory_order_acq_rel)) return;
  header_.clean_end = 0;
  std::vector<std::vector<Record>> blocks;
  blocks.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    // try_lock: the aborting thread may be inside commit() on this very
    // lane; an unsynchronized snapshot beats a self-deadlock in the abort
    // handler, and the checksum keeps the written file internally
    // consistent either way.
    const bool locked = lane->mu.try_lock();
    blocks.push_back(lane->records);
    if (locked) lane->mu.unlock();
  }
  std::string error;
  if (!save_log(path_, header_, blocks, &error)) {
    DFTH_LOG_WARN("replay: abort-time log flush failed: %s", error.c_str());
  } else {
    DFTH_LOG_WARN("replay: in-flight schedule log flushed to %s", path_.c_str());
  }
}

}  // namespace dfth::replay
