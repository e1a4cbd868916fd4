#include "runtime/sync.h"

#include <algorithm>

#include "resil/faults.h"
#include "runtime/engine.h"
#include "util/check.h"

// Observer edges (obs/edges.h): one call per release→acquire edge or lock
// hold, placed by the contract in edges.h — release-side and fast-path
// acquire-side calls run under the object's guard_.
#include "obs/edges.h"

// Record/replay hooks (replay/hooks.h): every guard_ critical section is one
// ordered decision. The SYNC_GATE runs before
// guard_.lock() (no instrumented lock held), the SYNC_COMMIT runs inside the
// section, immediately after the acquire — so the log captures exactly the
// order in which fibers won each object's guard, which is the only
// nondeterminism these primitives have (everything else is a deterministic
// function of that order plus the wait lists' discipline; a Mutex spin
// only delays a section and decides nothing).
#include "replay/hooks.h"

#define DFTH_SYNC_SECTION(op) \
  DFTH_REPLAY_SYNC_GATE();    \
  guard_.lock();              \
  DFTH_REPLAY_SYNC_COMMIT(this, op)

namespace dfth {

using obs::edges::Hold;
using replay::SyncOp;

namespace {

Engine* checked_engine() {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "synchronization primitive used outside dfth::run");
  return e;
}

// The calling thread, looked up (out of line) only if an observer reads it.
auto self(Engine* e) {
  return [e] { return e->current(); };
}

}  // namespace

// Destructors only unbind the object from the record/replay schedule log:
// arena-per-phase apps destroy a whole tree of primitives and rebuild at the
// recycled addresses, and a stale address→id binding would name the new
// object with its corpse's id (record and replay recycle memory in different
// orders, so the conflation diverges). Destroying a primitive with waiters
// is still UB, exactly as for pthreads.
Mutex::~Mutex() { DFTH_REPLAY_SYNC_DESTROY(this); }
CondVar::~CondVar() { DFTH_REPLAY_SYNC_DESTROY(this); }
Semaphore::~Semaphore() { DFTH_REPLAY_SYNC_DESTROY(this); }
Barrier::~Barrier() { DFTH_REPLAY_SYNC_DESTROY(this); }
RwLock::~RwLock() { DFTH_REPLAY_SYNC_DESTROY(this); }

// -- Mutex --------------------------------------------------------------------

void Mutex::lock() { lock_for(kNoTimeout, SyncOp::MutexLock); }

bool Mutex::try_lock_for(std::uint64_t timeout_ns) {
  return lock_for(timeout_ns, SyncOp::MutexTryLockFor);
}

bool Mutex::lock_for(std::uint64_t timeout_ns, [[maybe_unused]] SyncOp op) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  const bool timed = timeout_ns != kNoTimeout;
  if (timed && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout; the caller's timeout path absorbs it.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  Tcb* cur = e->current();
  std::uint64_t deadline = 0;  // a timed wait's, on the engine clock
  // Every pass after the first is a woken waiter's retry.
  for (bool retry = false;; retry = true) {
    if (owner() != nullptr && e->kind() == EngineKind::Real) {
      spin_while_owner_runs(cur);
    }
    DFTH_SYNC_SECTION(op);
    if (owner() == nullptr) {
      set_owner(cur);
      obs::edges::acquire(cur, this, Hold::kLock);
      guard_.unlock();
      return true;
    }
    DFTH_CHECK_MSG(owner() != cur, "recursive Mutex::lock");
    std::uint64_t wait_ns = timeout_ns;
    if (timed) {
      // A loser re-arms with the time it has left: the timeout is still
      // only ever the timer's claim.
      const std::uint64_t now = e->now_ns();
      if (!retry) {
        deadline = now + std::min(timeout_ns, kNoTimeout - 1 - now);
      } else {
        wait_ns = deadline > now ? deadline - now : 1;
      }
    }
    // A retry that lost is owed the next unlock's handoff.
    if (retry) ++heirs_;
    if (!e->wait(cur, &guard_, &waiters_, wait_ns, /*front=*/retry)) return false;
    // unlock() either handed the mutex to us, recording its release clock
    // under the guard (so this acquire needs no guard), or released it and
    // woke us to retry. A timer that claimed us instead takes no
    // release→acquire edge, so the race detector stays schedule-insensitive.
    if (owner() == cur) {
      obs::edges::acquire(cur, this, Hold::kLock);
      return true;
    }
  }
}

void Mutex::spin_while_owner_runs(const Tcb* cur) const {
  for (int i = 0; i < kSpinBudget; ++i) {
    const Tcb* o = owner();
    if (o == nullptr || o == cur ||
        o->state.load(std::memory_order_relaxed) != ThreadState::Running) {
      return;
    }
    cpu_relax();
  }
}

bool Mutex::try_lock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::MutexTryLock);
  if (owner() != nullptr) {
    guard_.unlock();
    return false;
  }
  Tcb* cur = e->current();
  set_owner(cur);
  obs::edges::acquire(cur, this, Hold::kLock);
  guard_.unlock();
  return true;
}

void Mutex::unlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::MutexUnlock);
  DFTH_CHECK_MSG(owner() == e->current(), "Mutex::unlock by non-owner");
  obs::edges::release(self(e), this, Hold::kLock);
  // An heir takes the mutex; any other waiter is woken to retry for it. A
  // timer may have claimed an heir meanwhile, so an empty list clears them.
  Tcb* next = waiters_.pop();
  const bool handoff = next != nullptr && heirs_ > 0;
  heirs_ = handoff ? heirs_ - 1 : 0;
  set_owner(handoff ? next : nullptr);
  guard_.unlock();
  if (next) e->wake(next);
}

// -- CondVar --------------------------------------------------------------------

void CondVar::wait(Mutex& m) { wait_for(m, kNoTimeout, SyncOp::CvWait); }

bool CondVar::timed_wait(Mutex& m, std::uint64_t timeout_ns) {
  return wait_for(m, timeout_ns, SyncOp::CvTimedWait);
}

bool CondVar::wait_for(Mutex& m, std::uint64_t timeout_ns,
                       [[maybe_unused]] SyncOp op) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur), "CondVar::wait caller does not hold the mutex");
  if (timeout_ns != kNoTimeout &&
      DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout: the mutex is never released, exactly as
    // if the deadline expired before the wait began.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  // The m.unlock() below commits its own nested MutexUnlock while this
  // section still holds guard_ — safe: no other actor's event on this
  // CondVar can sit between the two in the log (it would have needed guard_).
  DFTH_SYNC_SECTION(op);
  // Release the user mutex while holding guard_: a signaler cannot pop and
  // wake us before we finish blocking — no lost-wakeup window.
  m.unlock();
  const bool signalled = e->wait(cur, &guard_, &waiters_, timeout_ns);
  // Only a genuine signal carries the signaler's release→acquire edge,
  // recorded before it woke us; a timeout synchronizes with nobody.
  if (signalled) obs::edges::acquire(cur, this);
  m.lock();
  return signalled;
}

void CondVar::signal() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::CvSignal);
  obs::edges::release(self(e), this);
  Tcb* t = waiters_.pop();
  guard_.unlock();
  if (t) e->wake(t);
}

void CondVar::broadcast() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::CvBroadcast);
  obs::edges::release(self(e), this);
  WaitList woken;
  while (Tcb* t = waiters_.pop()) woken.push(t);
  guard_.unlock();
  while (Tcb* t = woken.pop()) e->wake(t);
}

// -- Semaphore ----------------------------------------------------------------

void Semaphore::acquire() { acquire_for(kNoTimeout, SyncOp::SemAcquire); }

bool Semaphore::try_acquire() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::SemTryAcquire);
  const bool ok = count_ > 0;
  if (ok) {
    --count_;
    obs::edges::acquire(self(e), this);
  }
  guard_.unlock();
  return ok;
}

bool Semaphore::try_acquire_for(std::uint64_t timeout_ns) {
  return acquire_for(timeout_ns, SyncOp::SemTryAcquireFor);
}

bool Semaphore::acquire_for(std::uint64_t timeout_ns, [[maybe_unused]] SyncOp op) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  if (timeout_ns != kNoTimeout &&
      DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(op);
  Tcb* cur = e->current();
  if (count_ > 0) {
    --count_;
    obs::edges::acquire(cur, this);
    guard_.unlock();
    return true;
  }
  if (!e->wait(cur, &guard_, &waiters_, timeout_ns)) return false;
  // release() transferred one unit directly to us (V→P edge recorded under
  // the guard before the wake).
  obs::edges::acquire(cur, this);
  return true;
}

void Semaphore::release() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::SemRelease);
  obs::edges::release(self(e), this);
  Tcb* t = waiters_.pop();
  if (!t) ++count_;
  guard_.unlock();
  if (t) e->wake(t);
}

// -- Barrier --------------------------------------------------------------------

void Barrier::arrive_and_wait() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::BarrierArrive);
  Tcb* cur = e->current();
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (++arrived_ == parties_) {
    arrived_ = 0;
    generation_.fetch_add(1, std::memory_order_release);
    // Every earlier arrival recorded its clock under the guard; the `last`
    // arrival seals generation `gen` as an all-to-all edge and inherits it
    // immediately (it never blocks).
    obs::edges::barrier_arrive(cur, this, gen, /*last=*/true);
    WaitList woken;
    while (Tcb* t = waiters_.pop()) woken.push(t);
    guard_.unlock();
    while (Tcb* t = woken.pop()) e->wake(t);
    return;
  }
  obs::edges::barrier_arrive(cur, this, gen, /*last=*/false);
  e->wait(cur, &guard_, &waiters_, kNoTimeout);
  obs::edges::barrier_leave(cur, this, gen);
}

// -- RwLock ----------------------------------------------------------------------

void RwLock::rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwRdLock);
  Tcb* cur = e->current();
  if (!writer_ && waiting_writers_ == 0) {
    ++readers_;
    obs::edges::acquire(cur, this, Hold::kRead);
    guard_.unlock();
    return;
  }
  e->wait(cur, &guard_, &read_waiters_, kNoTimeout);
  // The releasing thread counted us into readers_ before waking us.
  obs::edges::acquire(cur, this, Hold::kRead);
}

bool RwLock::try_rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwTryRdLock);
  const bool ok = !writer_ && waiting_writers_ == 0;
  if (ok) {
    ++readers_;
    obs::edges::acquire(self(e), this, Hold::kRead);
  }
  guard_.unlock();
  return ok;
}

void RwLock::rdunlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwRdUnlock);
  DFTH_CHECK_MSG(readers_ > 0, "rdunlock without rdlock");
  --readers_;
  obs::edges::release(self(e), this, Hold::kRead);
  if (readers_ == 0 && !writer_) {
    release_to_next();
    return;  // release_to_next unlocked the guard
  }
  guard_.unlock();
}

void RwLock::wrlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwWrLock);
  Tcb* cur = e->current();
  if (!writer_ && readers_ == 0) {
    writer_ = true;
    obs::edges::acquire(cur, this, Hold::kWrite);
    guard_.unlock();
    return;
  }
  ++waiting_writers_;
  e->wait(cur, &guard_, &write_waiters_, kNoTimeout);
  // The releasing thread set writer_ = true on our behalf.
  obs::edges::acquire(cur, this, Hold::kWrite);
}

bool RwLock::try_wrlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwTryWrLock);
  const bool ok = !writer_ && readers_ == 0;
  if (ok) {
    writer_ = true;
    obs::edges::acquire(self(e), this, Hold::kWrite);
  }
  guard_.unlock();
  return ok;
}

void RwLock::wrunlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SyncOp::RwWrUnlock);
  DFTH_CHECK_MSG(writer_, "wrunlock without wrlock");
  writer_ = false;
  obs::edges::release(self(e), this, Hold::kWrite);
  release_to_next();
}

void RwLock::release_to_next() {
  Engine* e = engine();
  // Prefer a waiting writer (writer-preferring discipline)...
  if (Tcb* w = write_waiters_.pop()) {
    --waiting_writers_;
    writer_ = true;
    guard_.unlock();
    e->wake(w);
    return;
  }
  // ...otherwise admit every waiting reader at once.
  WaitList woken;
  while (Tcb* r = read_waiters_.pop()) {
    ++readers_;
    woken.push(r);
  }
  guard_.unlock();
  while (Tcb* r = woken.pop()) e->wake(r);
}

// -- Once ------------------------------------------------------------------------

void Once::call(const std::function<void()>& fn) {
  // Under an active record/replay session the lock-free fast path is
  // disabled: whether a caller sees done_ without taking m_ is a data race
  // the log cannot capture. Forcing everyone through m_ makes the whole
  // operation a function of the mutex-acquisition order, which the m_ hooks
  // already record. Same policy on record and replay, so the event streams
  // line up.
  if (::dfth::replay::active() == nullptr &&
      done_.load(std::memory_order_acquire)) {
    // Fast-path observers synchronize with the runner through done_ alone
    // (no mutex), so the run→observe edge must be inherited here too. The
    // release clock is recorded before the store that made done_ visible.
    obs::edges::acquire([] { return engine() ? engine()->current() : nullptr; },
                        this);
    return;
  }
  LockGuard lock(m_);
  if (!done_.load(std::memory_order_relaxed)) {
    fn();
    obs::edges::release([] { return engine()->current(); }, this);
    done_.store(true, std::memory_order_release);
  }
  // Slow-path observers inherit the runner's clock through m_'s own
  // release→acquire edge.
}

}  // namespace dfth
