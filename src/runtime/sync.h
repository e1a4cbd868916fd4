// Blocking synchronization primitives: the Pthreads functionality the paper
// stresses its scheduler must preserve ("any existing Pthreads program can
// be executed using our space-efficient scheduler, including programs with
// blocking locks and condition variables" — unlike Cilk/Filaments-style
// systems that only support fork/join).
//
// All primitives follow one protocol, engine-agnostic:
//   1. take the object's spinlock guard,
//   2. fast path or: enqueue self on the wait list, set state Blocked,
//   3. Engine::block(&guard, &list, timeout) — the engine releases the
//      guard only after the blocking thread's context is fully saved; a
//      timed wait's timer claims the thread off the list under the guard,
//   4. a releasing thread pops a waiter under the guard and Engine::wake()s
//      it. Semaphore, CondVar, Barrier and RwLock hand the released unit to
//      that waiter; Mutex releases it instead, and its woken waiter retries
//      from step 1 (Mutex below says why).
// Each blocking primitive has one wait body for its untimed and timed
// calls; an untimed call passes kNoTimeout (runtime/engine.h).
// Blocked threads keep their placeholder in the AsyncDF ordered list, so
// blocking composes with the space-efficient scheduler exactly as the paper
// describes. Bound threads use the same code; having no fiber to switch
// away from, they spin-yield on their own state word until a waker or the
// timer flips it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "threads/tcb.h"
#include "util/spinlock.h"

namespace dfth {

namespace replay {
enum class SyncOp : std::uint64_t;  // replay/log.h
}

/// pthread_mutex_t equivalent, non-recursive, and adaptive like the Solaris
/// 2.5 mutexes the paper's runtime ran on. A handoff would leave the mutex
/// held by a fiber that is not running, and every later locker would queue
/// behind it (a lock convoy), so:
///   * Spin. On Real, lock() and try_lock_for() first poll the owner for
///     kSpinBudget pauses while it runs on another lane, with no section.
///     Sim runs every virtual processor on one host thread, so it never spins.
///   * Barge. unlock() releases the mutex and wakes the head waiter, which
///     retries; a locker that is running may take the mutex first.
///   * One loss. A woken waiter that loses its retry re-queues at the head
///     and the next unlock() hands the mutex straight to it, so no waiter
///     loses twice. The rule reads no clock, so Sim and replays stay
///     deterministic; a timed loser re-arms with the time it has left.
class Mutex {
 public:
  /// Owner polls before a locker takes the guard (as SpinFutexLock's).
  static constexpr int kSpinBudget = 128;

  Mutex() = default;
  /// Unbinds the address from the record/replay schedule log (the allocator
  /// may recycle it for a new primitive within the same run). Same for every
  /// primitive below.
  ~Mutex();
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock();
  bool try_lock();
  /// lock() with a deadline: returns true if the mutex was acquired within
  /// `timeout_ns`, false on timeout (the mutex is then NOT held). Timeouts
  /// use the claim-token protocol (Engine::block): wait-list membership
  /// under the guard is the claim, so a timeout and a wake can never both
  /// win. The sync.timeout fault site injects an immediate timeout at
  /// entry.
  bool try_lock_for(std::uint64_t timeout_ns);
  void unlock();

  /// The thread currently holding the mutex (diagnostics/tests).
  bool held() const { return owner() != nullptr; }

  /// True iff `t` is the current owner. CondVar::wait asserts this on its
  /// caller — waiting without holding the mutex is the classic lost-wakeup
  /// bug and is unconditionally fatal.
  bool held_by(const Tcb* t) const {
    return owner() == t && owner_tag_.load(std::memory_order_relaxed) == tag(t);
  }

 private:
  /// The wait body of lock() and try_lock_for(), committed as `op`.
  bool lock_for(std::uint64_t timeout_ns, replay::SyncOp op);
  /// Polls while another thread holds the mutex and runs.
  void spin_while_owner_runs(const Tcb* cur) const;
  Tcb* owner() const { return owner_.load(std::memory_order_acquire); }
  void set_owner(Tcb* t) {
    owner_tag_.store(t ? tag(t) : 0, std::memory_order_relaxed);
    owner_.store(t, std::memory_order_release);
  }
  static std::uint32_t tag(const Tcb* t) { return static_cast<std::uint32_t>(t->id); }

  SpinLock guard_;
  /// Written under guard_; atomic so that a spinner may poll it without,
  /// and release/acquire so that it may then read the owner's Tcb.
  std::atomic<Tcb*> owner_{nullptr};
  /// Waiters at the head of waiters_ that lost a retry and are owed a
  /// handoff. Two woken waiters can lose to one barger, so this counts.
  int heirs_ = 0;
  /// The low 32 bits of the owner's thread id, written with owner_. The
  /// engine recycles a Tcb once its thread is done, so a thread that exits
  /// holding the mutex leaves owner_ naming a Tcb a later thread may reuse;
  /// ids are not reused, so the ownership checks compare both. 32 bits fill
  /// the padding after heirs_, so a Mutex stays 40 bytes.
  std::atomic<std::uint32_t> owner_tag_{0};
  WaitList waiters_;
};

/// RAII lock for Mutex.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// pthread_cond_t equivalent.
class CondVar {
 public:
  CondVar() = default;
  ~CondVar();
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `m` and blocks; reacquires `m` before returning.
  void wait(Mutex& m);

  /// wait() with a deadline. Returns true if signaled, false on timeout; `m`
  /// is reacquired before returning either way (pthread_cond_timedwait
  /// semantics). An injected sync.timeout fault returns false immediately
  /// *without* ever releasing `m`.
  bool timed_wait(Mutex& m, std::uint64_t timeout_ns);

  /// wait() that returns once `pred()` holds (always rechecks the predicate
  /// under the mutex, so spurious signals are harmless).
  template <typename Pred>
  void wait_until(Mutex& m, Pred pred) {
    while (!pred()) wait(m);
  }

  void signal();
  void broadcast();

 private:
  /// The wait body of wait() and timed_wait(), committed as `op`.
  bool wait_for(Mutex& m, std::uint64_t timeout_ns, replay::SyncOp op);

  SpinLock guard_;
  WaitList waiters_;
};

/// Counting semaphore (sema_t equivalent; Figure 3 measures its pair-sync
/// cost).
class Semaphore {
 public:
  explicit Semaphore(int initial = 0) : count_(initial) {}
  ~Semaphore();
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  void acquire();       ///< P: decrement or block
  bool try_acquire();
  /// acquire() with a deadline: true if a unit was obtained within
  /// `timeout_ns`, false on timeout.
  bool try_acquire_for(std::uint64_t timeout_ns);
  void release();       ///< V: wake one waiter or increment

  int value() const { return count_; }

 private:
  /// The wait body of acquire() and try_acquire_for(), committed as `op`.
  bool acquire_for(std::uint64_t timeout_ns, replay::SyncOp op);

  SpinLock guard_;
  int count_ = 0;
  WaitList waiters_;
};

/// pthread_barrier_t equivalent (the coarse-grained SPLASH-2 codes
/// synchronize phases with one of these).
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}
  ~Barrier();
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until `parties` threads have arrived; the generation then flips
  /// and the barrier is immediately reusable.
  void arrive_and_wait();

  /// Completed-generation count. Atomic because observers poll it without
  /// the guard (a plain read here raced with arrive_and_wait's increment
  /// under the RealEngine — exactly the class of bug the happens-before
  /// race detector exists to catch).
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  SpinLock guard_;
  const int parties_;
  int arrived_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  WaitList waiters_;
};

/// pthread_once_t equivalent.
class Once {
 public:
  void call(const std::function<void()>& fn);
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> done_{false};
  Mutex m_;
};

/// pthread_rwlock_t equivalent. Writer-preferring: once a writer waits, new
/// readers queue behind it (no writer starvation); a releasing writer hands
/// off to the next writer if any, otherwise wakes every waiting reader.
class RwLock {
 public:
  RwLock() = default;
  ~RwLock();
  RwLock(const RwLock&) = delete;
  RwLock& operator=(const RwLock&) = delete;

  void rdlock();
  bool try_rdlock();
  void rdunlock();

  void wrlock();
  bool try_wrlock();
  void wrunlock();

  // RAII helpers.
  class ReadGuard {
   public:
    explicit ReadGuard(RwLock& l) : l_(l) { l_.rdlock(); }
    ~ReadGuard() { l_.rdunlock(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    RwLock& l_;
  };
  class WriteGuard {
   public:
    explicit WriteGuard(RwLock& l) : l_(l) { l_.wrlock(); }
    ~WriteGuard() { l_.wrunlock(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    RwLock& l_;
  };

 private:
  /// Called with guard_ held after a writer leaves; hands the lock on.
  void release_to_next();

  SpinLock guard_;
  int readers_ = 0;           ///< threads currently holding it shared
  bool writer_ = false;       ///< a thread currently holds it exclusive
  int waiting_writers_ = 0;
  WaitList read_waiters_;
  WaitList write_waiters_;
};

}  // namespace dfth
