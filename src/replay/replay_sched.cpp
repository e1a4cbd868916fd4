#include "replay/replay_sched.h"

#include <limits>

#include "util/check.h"
#include "util/log.h"

namespace dfth::replay {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

}  // namespace

ReplayScheduler::ReplayScheduler(Session* session, SchedKind logged_kind,
                                 Pinning pinning)
    : session_(session), logged_kind_(logged_kind), pinning_(pinning) {
  DFTH_CHECK(session_ != nullptr);
  if (pinning_ != Pinning::Cross) return;
  // Index the log for tid translation: children per parent in spawn order,
  // and the global order of non-dive dispatches (fork dives re-happen on the
  // simulator's own spawn path, so only queue-served picks are replayed
  // through pick_next).
  for (const Record& r : session_->log().ordered) {
    switch (static_cast<EvKind>(r.kind)) {
      case EvKind::SpawnReg:
        children_of_[r.actor].push_back({r.a, r.b});
        break;
      case EvKind::Dispatch:
        // Fork dives re-happen on the simulator's own spawn path; the
        // deadline flag may ride on a queue-served dispatch, so mask rather
        // than compare against zero.
        if ((r.b & kDispatchForkDive) == 0) dispatch_order_.push_back(r.a);
        break;
      default:
        break;
    }
  }
}

ReplayScheduler::~ReplayScheduler() {
  if (pinning_ == Pinning::Cross) {
    DFTH_LOG_INFO(
        "cross-replay: served %llu of %llu logged dispatches in order "
        "(%llu divergences)",
        static_cast<unsigned long long>(served_in_order_),
        static_cast<unsigned long long>(dispatch_order_.size()),
        static_cast<unsigned long long>(divergences_));
  }
}

bool ReplayScheduler::needs_quota() const {
  switch (logged_kind_) {
    case SchedKind::AsyncDf:
    case SchedKind::ClusteredAdf:
    case SchedKind::DfDeques:
      return true;
    default:
      return false;
  }
}

std::uint64_t ReplayScheduler::log_tid_of(const Tcb* parent) const {
  if (parent == nullptr) return kActorHost;
  auto it = sim_to_log_.find(parent->id);
  return it == sim_to_log_.end() ? kActorHost : it->second;
}

const ReplayScheduler::LoggedChild* ReplayScheduler::next_logged_child(
    std::uint64_t log_parent) const {
  auto kids = children_of_.find(log_parent);
  if (kids == children_of_.end()) return nullptr;
  auto next = next_ordinal_.find(log_parent);
  const std::size_t ordinal = next == next_ordinal_.end() ? 0 : next->second;
  return ordinal < kids->second.size() ? &kids->second[ordinal] : nullptr;
}

bool ReplayScheduler::dives(const Tcb* parent, const Tcb* child) const {
  (void)child;
  if (pinning_ == Pinning::Pin) {
    // The caller gated on this spawn's SpawnReg record, so the head's flags
    // are this child's logged placement. After log exhaustion, free-run as
    // FIFO (no preemption).
    return (session_->spawn_flags_hint(0) & kSpawnPreempt) != 0;
  }
  const LoggedChild* lc = next_logged_child(log_tid_of(parent));
  return lc != nullptr && (lc->flags & kSpawnPreempt) != 0;
}

void ReplayScheduler::register_thread(Tcb* parent, Tcb* child) {
  if (pinning_ == Pinning::Pin) return;
  const std::uint64_t log_parent = log_tid_of(parent);
  const LoggedChild* lc = next_logged_child(log_parent);
  ++next_ordinal_[log_parent];
  if (lc == nullptr) {
    // The simulated run spawned more children here than the log saw (fault
    // or OOM timing differs across engines) — unmapped, FIFO placement.
    ++divergences_;
    return;
  }
  sim_to_log_[child->id] = lc->tid;
  log_to_sim_[lc->tid] = child->id;
}

void ReplayScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;
  ready_.push_back(t);
  by_tid_[t->id] = std::prev(ready_.end());
}

Tcb* ReplayScheduler::take_ready(std::uint64_t tid) {
  auto it = by_tid_.find(tid);
  if (it == by_tid_.end()) return nullptr;
  Tcb* t = *it->second;
  ready_.erase(it->second);
  by_tid_.erase(it);
  return t;
}

Tcb* ReplayScheduler::pop_fifo(std::uint64_t now, std::uint64_t* earliest) {
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    Tcb* t = *it;
    if (t->ready_at_ns <= now) {
      by_tid_.erase(t->id);
      ready_.erase(it);
      return t;
    }
    if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
  }
  return nullptr;
}

Tcb* ReplayScheduler::pick_next(int proc, std::uint64_t now,
                                std::uint64_t* earliest) {
  *earliest = kInf;
  if (pinning_ == Pinning::Pin) {
    if (session_->replay_exhausted()) return pop_fifo(now, earliest);
    std::uint64_t tid = 0;
    std::uint64_t seq = 0;
    if (!session_->head_is(EvKind::Dispatch, lane_actor(proc), &tid, &seq)) {
      // Not this lane's turn — the worker's gate should have prevented the
      // call; treat as a spurious wakeup and let it re-gate.
      return nullptr;
    }
    Tcb* t = take_ready(tid);
    if (t == nullptr) {
      DFTH_LOG_ERROR(
          "replay: log dispatches thread %llu on lane %d (seq %llu) but it "
          "is not in the ready set",
          static_cast<unsigned long long>(tid), proc,
          static_cast<unsigned long long>(seq));
      DFTH_CHECK_MSG(false, "replay diverged: logged dispatch target not ready");
    }
    std::uint64_t victim = 0;
    if (session_->consume_steal(proc, tid, seq, &victim)) ++steals_;
    return t;
  }

  // Cross mode: serve the logged global dispatch order when the mapped
  // thread is ready and eligible at this virtual time; skip entries whose
  // thread already exited on the simulator (its dispatch count differed);
  // otherwise fall back to FIFO so the simulation keeps moving — the skipped
  // head is retried once its thread becomes ready.
  (void)proc;
  while (dispatch_cursor_ < dispatch_order_.size()) {
    const std::uint64_t log_tid = dispatch_order_[dispatch_cursor_];
    auto it = log_to_sim_.find(log_tid);
    if (it == log_to_sim_.end()) break;  // not spawned yet on the simulator
    if (exited_sim_.count(it->second) != 0) {
      ++divergences_;
      ++dispatch_cursor_;
      continue;
    }
    auto rit = by_tid_.find(it->second);
    if (rit == by_tid_.end()) break;  // alive but not ready — run others first
    Tcb* t = *rit->second;
    if (t->ready_at_ns > now) {
      // Ready but in the virtual future: honor simulator causality.
      *earliest = t->ready_at_ns;
      return nullptr;
    }
    ready_.erase(rit->second);
    by_tid_.erase(rit);
    ++dispatch_cursor_;
    ++served_in_order_;
    return t;
  }
  return pop_fifo(now, earliest);
}

void ReplayScheduler::unregister_thread(Tcb* t) {
  // Engines unregister on exit; the thread is normally not in the ready
  // structure by then, but stay safe on divergent paths.
  auto it = by_tid_.find(t->id);
  if (it != by_tid_.end()) {
    ready_.erase(it->second);
    by_tid_.erase(it);
  }
  if (pinning_ == Pinning::Cross) exited_sim_.insert(t->id);
}

std::size_t ReplayScheduler::ready_count() const { return ready_.size(); }

}  // namespace dfth::replay
