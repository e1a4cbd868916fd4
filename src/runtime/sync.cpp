#include "runtime/sync.h"

#include "resil/faults.h"
#include "runtime/engine.h"
#include "util/check.h"

// Observer edges (obs/edges.h): one call per release→acquire edge or lock
// hold, placed by the contract in edges.h — release-side and fast-path
// acquire-side calls run under the object's guard_.
#include "obs/edges.h"

// Record/replay hooks (replay/hooks.h, -DDFTH_REPLAY builds): every guard_
// critical section is one ordered decision. The SYNC_GATE runs before
// guard_.lock() (no instrumented lock held), the SYNC_COMMIT runs inside the
// section, immediately after the acquire — so the log captures exactly the
// order in which fibers won each object's guard, which is the only
// nondeterminism these primitives have (everything else is a deterministic
// function of that order plus the wait-list FIFO discipline).
#include "replay/hooks.h"

#if DFTH_REPLAY
#define DFTH_SYNC_SECTION(op)                             \
  DFTH_REPLAY_SYNC_GATE();                                \
  guard_.lock();                                          \
  DFTH_REPLAY_SYNC_COMMIT(this, ::dfth::replay::SyncOp::op)
#else
#define DFTH_SYNC_SECTION(op) guard_.lock()
#endif

namespace dfth {

using obs::edges::Hold;

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

void Mutex::lock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexLock);
  Tcb* cur = e->current();
  if (owner_ == nullptr) {
    owner_ = cur;
    obs::edges::acquire(cur, this, Hold::kLock);
    guard_.unlock();
    return;
  }
  DFTH_CHECK_MSG(owner_ != cur, "recursive Mutex::lock");
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // unlock() handed ownership to us before waking (and recorded its release
  // clock under the guard, so this acquire needs no guard).
  obs::edges::acquire(cur, this, Hold::kLock);
}

bool Mutex::try_lock_for(std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout; the caller's timeout path absorbs it.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(MutexTryLockFor);
  Tcb* cur = e->current();
  if (owner_ == nullptr) {
    owner_ = cur;
    obs::edges::acquire(cur, this, Hold::kLock);
    guard_.unlock();
    return true;
  }
  DFTH_CHECK_MSG(owner_ != cur, "recursive Mutex::try_lock_for");
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  if (timed_out) return false;
  // unlock() handed ownership to us before waking; the timer lost the claim
  // (we were already off the wait list), so only this path takes the
  // release→acquire edge — the race detector stays schedule-insensitive.
  obs::edges::acquire(cur, this, Hold::kLock);
  return true;
}

bool Mutex::try_lock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexTryLock);
  if (owner_ != nullptr) {
    guard_.unlock();
    return false;
  }
  owner_ = e->current();
  obs::edges::acquire(owner_, this, Hold::kLock);
  guard_.unlock();
  return true;
}

void Mutex::unlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexUnlock);
  DFTH_CHECK_MSG(owner_ == e->current(), "Mutex::unlock by non-owner");
  obs::edges::release(self(e), this, Hold::kLock);
  Tcb* next = waiters_.pop();
  owner_ = next;  // direct handoff keeps the queue FIFO-fair
  guard_.unlock();
  if (next) e->wake(next);
}

// -- CondVar --------------------------------------------------------------------

void CondVar::wait(Mutex& m) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur), "CondVar::wait caller does not hold the mutex");
  // The m.unlock() below commits its own nested MutexUnlock while this
  // CvWait section still holds guard_ — safe: no other actor's event on this
  // CondVar can sit between the two in the log (it would have needed guard_).
  DFTH_SYNC_SECTION(CvWait);
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  // Release the user mutex only after we are on the wait list (we still hold
  // guard_, so a signaler cannot pop-and-wake us before we finish blocking —
  // no lost-wakeup window).
  m.unlock();
  e->block_current(&guard_);
  // Re-fetch the engine: we may resume on another kernel thread.
  engine()->current();  // (no-op read; documents the refetch discipline)
  // signal()/broadcast() recorded the signaler's clock before waking us.
  obs::edges::acquire(cur, this);
  m.lock();
}

bool CondVar::timed_wait(Mutex& m, std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur),
                 "CondVar::timed_wait caller does not hold the mutex");
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout: the mutex is never released, exactly as
    // if the deadline expired before the wait began.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(CvTimedWait);
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  m.unlock();
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  // Only a genuine signal carries the signaler's release→acquire edge; a
  // timeout synchronizes with nobody.
  if (!timed_out) obs::edges::acquire(cur, this);
  m.lock();
  return !timed_out;
}

void CondVar::signal() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(CvSignal);
  obs::edges::release(self(e), this);
  Tcb* t = waiters_.pop();
  guard_.unlock();
  if (t) e->wake(t);
}

void CondVar::broadcast() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(CvBroadcast);
  obs::edges::release(self(e), this);
  WaitList woken;
  while (Tcb* t = waiters_.pop()) woken.push(t);
  guard_.unlock();
  while (Tcb* t = woken.pop()) e->wake(t);
}

// -- Semaphore ----------------------------------------------------------------

void Semaphore::acquire() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemAcquire);
  Tcb* cur = e->current();
  if (count_ > 0) {
    --count_;
    obs::edges::acquire(cur, this);
    guard_.unlock();
    return;
  }
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // release() transferred one unit directly to us (V→P edge recorded under
  // the guard before the wake).
  obs::edges::acquire(cur, this);
}

bool Semaphore::try_acquire() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemTryAcquire);
  const bool ok = count_ > 0;
  if (ok) {
    --count_;
    obs::edges::acquire(self(e), this);
  }
  guard_.unlock();
  return ok;
}

bool Semaphore::try_acquire_for(std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(SemTryAcquireFor);
  Tcb* cur = e->current();
  if (count_ > 0) {
    --count_;
    obs::edges::acquire(cur, this);
    guard_.unlock();
    return true;
  }
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  if (timed_out) return false;
  // release() transferred one unit directly to us (V→P edge).
  obs::edges::acquire(cur, this);
  return true;
}

void Semaphore::release() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemRelease);
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
  DFTH_SYNC_SECTION(BarrierArrive);
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
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  obs::edges::barrier_leave(cur, this, gen);
}

// -- RwLock ----------------------------------------------------------------------

void RwLock::rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwRdLock);
  Tcb* cur = e->current();
  if (!writer_ && waiting_writers_ == 0) {
    ++readers_;
    obs::edges::acquire(cur, this, Hold::kRead);
    guard_.unlock();
    return;
  }
  read_waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // The releasing thread counted us into readers_ before waking us.
  obs::edges::acquire(cur, this, Hold::kRead);
}

bool RwLock::try_rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwTryRdLock);
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
  DFTH_SYNC_SECTION(RwRdUnlock);
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
  DFTH_SYNC_SECTION(RwWrLock);
  Tcb* cur = e->current();
  if (!writer_ && readers_ == 0) {
    writer_ = true;
    obs::edges::acquire(cur, this, Hold::kWrite);
    guard_.unlock();
    return;
  }
  ++waiting_writers_;
  write_waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // The releasing thread set writer_ = true on our behalf.
  obs::edges::acquire(cur, this, Hold::kWrite);
}

bool RwLock::try_wrlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwTryWrLock);
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
  DFTH_SYNC_SECTION(RwWrUnlock);
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
#if DFTH_REPLAY
  // Under an active record/replay session the lock-free fast path is
  // disabled: whether a caller sees done_ without taking m_ is a data race
  // the log cannot capture. Forcing everyone through m_ makes the whole
  // operation a function of the mutex-acquisition order, which the m_ hooks
  // already record. Same policy on record and replay, so the event streams
  // line up.
  if (::dfth::replay::active() == nullptr)
#endif
  if (done_.load(std::memory_order_acquire)) {
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
