// Schedule-pinned Scheduler implementations for replay runs.
//
// Pin mode (RealEngine replay): the policy scheduler is replaced entirely —
// pick_next serves exactly the logged Dispatch decision for the asking lane.
// Replaying the *outcome* rather than re-running the policy sidesteps the
// one genuinely unpinnable input a policy has: WorkSteal's victim RNG is
// advanced by failed picks, whose count depends on wall-clock idle timing
// the log cannot (and should not) pin. Logged steals are consumed as
// annotations so RunStats::steals reproduces.
//
// Cross mode (SimEngine re-examination of a RealEngine log): the log's tids
// are translated through (parent, spawn-ordinal) — each thread's spawns
// happen in its own program order on both engines, so ordinals line up even
// though raw tids do not. pick_next serves the logged global dispatch order
// whenever the mapped thread is ready; when the simulator's own causality
// disagrees (virtual time, different OOM/fault timing) it falls back to FIFO
// and keeps a divergence count instead of wedging. Constructed directly, not
// through make_scheduler, so a validated run's AuditedScheduler never audits
// a pinned schedule against a policy it does not implement.
// Only engine.cpp constructs one; everything else reaches replay through
// replay/hooks.h.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/scheduler.h"
#include "replay/session.h"

namespace dfth::replay {

class ReplayScheduler final : public Scheduler {
 public:
  enum class Pinning { Pin, Cross };

  ReplayScheduler(Session* session, SchedKind logged_kind, Pinning pinning);
  ~ReplayScheduler() override;

  SchedKind kind() const override { return logged_kind_; }
  bool needs_quota() const override;
  /// One lock domain, but the section layout of the recorded policy: a
  /// policy whose threads keep a home domain committed an exited fiber's
  /// joiner wake in a section of its own (core/scheduler.h).
  bool keeps_home() const override {
    return logged_kind_ == SchedKind::ClusteredAdf;
  }

  /// Pin: the gated head SpawnReg's placement. Cross: the logged placement
  /// of the parent's next child.
  bool dives(const Tcb* parent, const Tcb* child) const override;
  void register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override;

  /// Steals consumed from the log's annotations (Pin mode). Only WorkSteal
  /// feeds RunStats::steals in live runs, so other kinds report 0 to keep
  /// replayed stats identical to recorded ones.
  std::uint64_t steal_count() const {
    return logged_kind_ == SchedKind::WorkSteal ? steals_ : 0;
  }
  /// Cross mode: decisions the simulator could not serve in logged order.
  std::uint64_t divergences() const { return divergences_; }

 private:
  Tcb* take_ready(std::uint64_t tid);
  Tcb* pop_fifo(std::uint64_t now, std::uint64_t* earliest);

  Session* session_;
  SchedKind logged_kind_;
  Pinning pinning_;

  // Ready structure: FIFO order for fallback picks, tid index for pinned
  // picks. One lock domain: engines call every method under its lock.
  std::list<Tcb*> ready_;
  std::unordered_map<std::uint64_t, std::list<Tcb*>::iterator> by_tid_;

  std::uint64_t steals_ = 0;
  std::uint64_t divergences_ = 0;

  // -- Cross mode ------------------------------------------------------------
  struct LoggedChild {
    std::uint64_t tid = 0;
    std::uint64_t flags = 0;
  };
  /// Cross mode: the log tid of a simulated parent (kActorHost for none).
  std::uint64_t log_tid_of(const Tcb* parent) const;
  /// Cross mode: the logged spawn the parent's next child maps to, or
  /// nullptr when the simulated run spawned more children than the log.
  const LoggedChild* next_logged_child(std::uint64_t log_parent) const;
  std::unordered_map<std::uint64_t, std::vector<LoggedChild>> children_of_;
  std::unordered_map<std::uint64_t, std::size_t> next_ordinal_;  ///< by log tid
  std::unordered_map<std::uint64_t, std::uint64_t> sim_to_log_;
  std::unordered_map<std::uint64_t, std::uint64_t> log_to_sim_;
  std::unordered_set<std::uint64_t> exited_sim_;
  std::vector<std::uint64_t> dispatch_order_;  ///< logged non-dive dispatch tids
  std::size_t dispatch_cursor_ = 0;
  std::uint64_t served_in_order_ = 0;
};

}  // namespace dfth::replay
