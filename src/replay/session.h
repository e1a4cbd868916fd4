// Record/replay session: the gate/commit protocol over the schedule log.
//
// The protocol has one invariant: every ordered decision is committed inside
// the same critical section that serializes it in the live runtime (a
// scheduler lock domain of the engine — a steal's under the victim's — the
// engine's mu_ for bound threads, a sync primitive's guard_, a Tcb's
// join_lock, the fault injector's mu_, or the session's own tid-order
// lock), and every such
// section is entered through a gate taken while holding NO instrumented
// lock.
//
//   Record:  gate() is a no-op; commit() stamps the decision with the next
//            global seq (fetched inside the section, so seq order is a valid
//            linearization: same-lock commits are ordered by section order,
//            same-actor commits by program order, and concurrent commits
//            under different locks touch disjoint state).
//   Replay:  gate(actor) blocks until the log's next ordered record belongs
//            to `actor` — admission control, so the recorded winner of every
//            lock race wins again. commit() then verifies the decision's
//            payload against the head record, advances the cursor and wakes
//            the next gated actor. Any mismatch is a diagnosed divergence
//            abort, and no cursor progress within kStallNs is a diagnosed
//            stall — never a hang or silent drift.
//
// Deadlock-freedom of nested gates (e.g. CondVar::wait holds its guard_
// while the inner Mutex::unlock gates): every record between two commits of
// a section's owner was recorded while the owner held that section's lock,
// so it cannot need the lock — its actor proceeds in replay, the cursor
// reaches the owner's next record, and the owner resumes. Induction from
// cursor 0 gives global progress.
//
// When the log is exhausted (including a truncated abort-time log) every
// gate opens and the run free-runs to completion — partial logs degrade
// gracefully instead of wedging the runtime.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "replay/log.h"
#include "resil/faults.h"

namespace dfth {
struct RuntimeOptions;
}

namespace dfth::replay {

enum class Mode : std::uint8_t {
  Record,       ///< append every decision; save on finish (or abort)
  Replay,       ///< same engine: pin every decision to the log
  CrossReplay,  ///< other engine: no pinning; ReplayScheduler maps the log
};

class Session {
 public:
  /// Recording session: `lanes` writer lanes (nprocs workers + 1 external).
  /// The header is filled from `opts` by the caller (api.cpp) so this layer
  /// stays ignorant of RuntimeOptions' full shape.
  static std::unique_ptr<Session> start_record(const LogHeader& header, int lanes,
                                               std::string path);

  /// Replaying session over a loaded log (Replay or CrossReplay per the
  /// engine the run is about to use).
  static std::unique_ptr<Session> start_replay(LoadedLog log, Mode mode,
                                               std::string path);

  ~Session();

  Mode mode() const { return mode_; }
  /// True when this session pins runtime decisions (Record or Replay —
  /// e.g. Once::call must take its instrumented slow path).
  bool pins() const { return mode_ != Mode::CrossReplay; }

  enum class Turn { Mine, Free };

  /// Replay: block until the next ordered record belongs to `actor`
  /// (Turn::Mine) or the log is exhausted (Turn::Free). Record/CrossReplay:
  /// immediate Turn::Mine. Call with no instrumented lock held (nested sync
  /// sections excepted — see file comment).
  Turn gate(std::uint64_t actor);

  /// Record: append. Replay: verify against the head record and advance.
  /// Call inside the decision's critical section.
  void commit(EvKind kind, std::uint64_t actor, std::uint64_t a, std::uint64_t b);

  /// Commits the n records of one critical section that makes several
  /// ordered decisions (the engine's merged scheduling transitions). Record:
  /// the batch takes n consecutive seqs, so no other actor's record can land
  /// between them and the replaying gate, once open for the first record,
  /// stays open through the last. Replay: verifies them in turn, as commit().
  void commit_batch(const Record* recs, std::size_t n);

  /// TidAlloc: gate + serialize + fetch + commit in one step, so thread-id
  /// assignment order is itself a logged decision (next_tid_ alone is a
  /// racy atomic the log could not otherwise reproduce).
  std::uint64_t alloc_tid(std::atomic<std::uint64_t>& next, std::uint64_t actor);

  /// Sync section commit: translates the primitive's address to a stable
  /// dense object id (assigned in first-use order when recording, bound
  /// positionally when replaying — addresses themselves never match across
  /// processes).
  void commit_sync(std::uint64_t actor, const void* obj, SyncOp op);

  /// Drops a destroyed primitive's address→id binding. The allocator can
  /// recycle the address within the same run (arena-per-phase apps destroy
  /// a whole tree of mutexes and rebuild at the same spot); a stale entry
  /// would name the new object with its corpse's id, and since the two runs
  /// recycle memory in different orders, record and replay would conflate
  /// *different* pairs of objects — a binding divergence with no real
  /// schedule difference behind it.
  void forget_sync(const void* obj);

  /// Steal annotation (never gated, never advances the cursor). Replay
  /// consumption happens in ReplayScheduler via consume_steal().
  void annotate_steal(int lane, std::uint64_t tid, std::uint64_t victim);

  /// Cancel-fire annotation: lane expired fiber `tid`'s deadline at a
  /// dispatch. Diagnostics only (dfth-replay event counts); the pinned
  /// decision is the Dispatch record's kDispatchDeadline flag.
  void annotate_cancel_fire(int lane, std::uint64_t tid);

  /// Replay: pop lane's next recorded steal if it names `tid` and was logged
  /// before `before_seq` (the Dispatch about to be served). Returns true and
  /// the victim on a match.
  bool consume_steal(int lane, std::uint64_t tid, std::uint64_t before_seq,
                     std::uint64_t* victim);

  /// Replay: non-blocking head peek — true when the next ordered record is
  /// {kind, actor}; fills *a (and *seq / *b when non-null). The timer's
  /// poll, ReplayScheduler's dispatch serving, and the engines'
  /// recorded-Dispatch-flags reads (deadline expiry).
  bool head_is(EvKind kind, std::uint64_t actor, std::uint64_t* a,
               std::uint64_t* seq = nullptr, std::uint64_t* b = nullptr) const;

  /// Replay: every ordered record has been consumed — free-run from here.
  bool replay_exhausted() const;

  /// Replay: index of the next ordered record to be committed (diagnostics).
  std::size_t cursor() const {
    std::lock_guard<std::mutex> lk(cursor_mu_);
    return cursor_;
  }

  /// Replay: one-line cursor + next-decision summary for the flight
  /// recorder (where the schedule wedged when an abort interrupts a
  /// replay). Empty for Record/CrossReplay sessions.
  std::string position_summary() const;

  /// Replay: flags of the head SpawnReg record (ReplayScheduler's
  /// register_thread answer). Falls back to `fallback` when not replaying or
  /// the head is not a SpawnReg.
  std::uint64_t spawn_flags_hint(std::uint64_t fallback) const;

  /// Record: write the log file (clean_end flag set). Idempotent with the
  /// abort-time flush — whichever runs first wins the clean_end marker.
  bool finish_record(bool clean, std::string* error);

  /// Best-effort in-flight flush for abort paths (watchdog dumps, SIGABRT).
  /// Lane buffers are snapshotted with try_lock so a crash inside commit()
  /// cannot self-deadlock; the written file is internally consistent
  /// (checksummed) but marked clean_end = 0.
  void flush_partial();

  const LogHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  const LoadedLog& log() const { return log_; }
  /// Fault plan reconstructed from the log header, or nullptr when the
  /// recorded run armed no plan through RuntimeOptions.
  const resil::FaultPlan* embedded_plan() const;

 private:
  Session(Mode mode, std::string path);

  void divergence(const char* what, EvKind kind, std::uint64_t actor,
                  std::uint64_t a, std::uint64_t b) const;

  struct LaneBuf {
    std::mutex mu;
    std::vector<Record> records;
  };

  Mode mode_;
  std::string path_;
  LogHeader header_{};
  resil::FaultPlan plan_{};
  bool has_plan_ = false;

  // -- record state ----------------------------------------------------------
  std::atomic<std::uint64_t> seq_{0};
  std::vector<std::unique_ptr<LaneBuf>> lanes_;
  std::mutex tid_order_mu_;  ///< serializes {fetch tid, commit} in alloc_tid
  std::mutex obj_mu_;
  std::unordered_map<const void*, std::uint64_t> obj_ids_;
  std::uint64_t next_obj_id_ = 1;
  std::atomic<bool> flushed_{false};

  // -- replay state ----------------------------------------------------------
  LoadedLog log_;
  mutable std::mutex cursor_mu_;
  mutable std::condition_variable cursor_cv_;
  std::size_t cursor_ = 0;
  std::uint64_t last_advance_ns_ = 0;  ///< steady clock at last cursor move
  std::unordered_map<std::uint64_t, std::deque<Record>> steal_fifos_;  ///< by lane actor
  std::mutex steal_mu_;
};

/// Ordered records of one engine section (one lock domain), gated once
/// before the section and committed as one batch (Session::commit_batch). Recording
/// buffers the records until commit(); replaying verifies each at add(), so
/// a pinned pick later in the same section already sees its own Dispatch at
/// the head of the log.
class SectionLog {
 public:
  SectionLog();
  void add(EvKind kind, std::uint64_t actor, std::uint64_t a, std::uint64_t b);
  void commit();

 private:
  static constexpr std::size_t kMaxRecords = 4;
  Session* session_;
  Record recs_[kMaxRecords];
  std::size_t n_ = 0;
};

/// The installed session, or nullptr. Installed by api.cpp around a run;
/// read from hot paths with a relaxed atomic (same discipline as
/// obs::tracer()).
Session* active();
void set_active(Session* s);

/// Binds the calling kernel thread to a writer lane (workers: worker id).
/// Unbound threads (host, supervisor, bound fibers) write to the shared
/// external lane, the last one.
void bind_lane(int lane);

/// Actor id for the calling context: current fiber's tid, else kActorHost.
std::uint64_t self_actor();

/// True when an installed session pins runtime decisions (Record or Replay).
/// Code whose control flow reads concurrently-mutated state outside any
/// instrumented critical section (optimistic lock-free descents and similar)
/// is unreplayable by construction — when this returns true it must take a
/// lock-ordered equivalent so the schedule log captures every decision.
bool pinned();

/// True when an installed session is in strict (same-engine) Replay and the
/// ordered log still has records to serve. Code with side-effecting raced
/// operations (an MPSC pop consumes an element; an admission CAS reserves
/// bytes) consults this to *pre-read* the recorded outcome via observe_u64
/// before performing — or skipping — the live operation.
bool pinned_active();

/// True when strict Replay's next ordered record is the timer's
/// TimeoutClaim; *tid names the sleeper it claims. The supervisor fires
/// exactly that sleeper, never one its wall-clock deadline picks.
bool next_timer_claim(std::uint64_t* tid);

/// Pins a raced read. Record (Real engine only): commits {Observe, actor,
/// live, site} and returns `live`. Replay: gates, verifies the head record's
/// site, commits and returns the *recorded* value — control flow that
/// branches on the result re-takes the recorded path even when the live
/// value raced differently. CrossReplay, no session, log exhausted, or Sim
/// engine (virtual time is already deterministic): passthrough of `live`.
std::uint64_t observe_u64(std::uint64_t site, std::uint64_t live);

}  // namespace dfth::replay
