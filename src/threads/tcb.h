// Thread control block: one per live user-level thread, shared by every
// engine and scheduler. Intrusive links keep scheduler and wait-queue
// operations allocation-free. The engine recycles a Tcb once its thread has
// exited and been joined or detached (runtime/engine.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/order_list.h"
#include "space/stack_pool.h"
#include "threads/attr.h"
#include "threads/cancel.h"
#include "threads/context.h"
#include "util/spinlock.h"

namespace dfth {

enum class ThreadState : std::uint8_t {
  Embryo,   ///< created, never yet dispatched
  Ready,    ///< runnable, waiting in the scheduler
  Running,  ///< executing on some (virtual) processor
  Blocked,  ///< waiting on a join or a synchronization object
  Done,     ///< exited
};

const char* to_string(ThreadState state);

struct Tcb;

// A Tcb is three parts in this order, so that its hot fields keep their
// neighbours (state beside ctx): TcbProgram and TcbFields, which recycling
// resets by value (Engine::recycle assigns a fresh one of each), and
// TcbKept between them, which it keeps or resets with atomic stores.

struct TcbProgram {
  // -- identity & program ---------------------------------------------------
  std::uint64_t id = 0;
  Attr attr;
  std::function<void*()> entry;
  void* result = nullptr;
  bool is_dummy = false;  ///< δ no-op thread inserted before a large alloc
  bool is_main = false;
  /// Spawn call site (static storage duration; from std::source_location in
  /// dfth::spawn). Keys the work/span profiler's per-site attribution;
  /// always present so Tcb layout is flag-independent.
  const char* site_file = nullptr;
  int site_line = 0;
};

struct TcbKept {
  /// Read without a lock by other threads (the adaptive Mutex polls its
  /// owner's), also after the thread exited: never re-constructed.
  std::atomic<ThreadState> state{ThreadState::Embryo};
  /// Parties still to be done with this Tcb: its exit, once retired, and
  /// its handle's join or detach (main has no handle). The one that drops
  /// it to 0 recycles the Tcb.
  std::atomic<std::uint8_t> refs{2};
  SpinLock join_lock;  ///< guards the join/exit protocol fields
  /// Whether the Tcb is on a lane's posted list, waiting for a section to
  /// apply it. A Tcb sits on at most one list.
  std::atomic<bool> posted{false};
  Tcb* created_next = nullptr;  ///< the engine's per-lane Tcb registry list
};

struct TcbFields {
  // -- execution state -------------------------------------------------------
  Context ctx;
  Stack stack;

  // -- join/exit protocol (guarded by Tcb::join_lock in the real engine) -----
  Tcb* joiner = nullptr;   ///< thread blocked in join() on this thread
  bool finished = false;   ///< entry has returned / exit was called
  bool detached = false;
  bool joined = false;

  // -- scheduler state --------------------------------------------------------
  Tcb* parent = nullptr;
  /// Cancellation scope this fiber runs under (threads/cancel.h): the attr's
  /// token if set, else the parent's at spawn time. Null outside any scope.
  CancelToken* cancel = nullptr;
  OrderNode order;          ///< placeholder in the AsyncDF serial-order list
  std::int64_t quota = 0;   ///< remaining memory quota for this scheduling
  int home_proc = 0;        ///< policy data: WS deque / clustered SMP id
  Tcb* sched_next = nullptr;  ///< intrusive link for FIFO/LIFO/deque storage,
                              ///< AsyncDF's ready list and, once the Tcb is
                              ///< free, the engine's Tcb cache
  /// RealEngine's posted readies (one-domain policies): the next older entry
  /// of the lane's posted list and what the entry asks for (Tcb::posted).
  Tcb* post_link = nullptr;
  std::uint8_t post_kind = 0;

  // -- wait queues ------------------------------------------------------------
  Tcb* wait_next = nullptr;  ///< intrusive link while blocked on a sync object
  bool timed_out = false;    ///< set by the engine timer when it claimed
                             ///< this thread's timed wait before a waker
                             ///< did; read (and reset) by Engine::block
                             ///< before it returns

  // -- simulation state --------------------------------------------------------
  std::uint64_t ready_at_ns = 0;   ///< virtual time at which it became runnable
  std::uint64_t dispatches = 0;    ///< times scheduled (stats)

  // -- thread-specific data (pthread_key_t equivalent) -------------------------
  std::vector<void*> tls;

  // -- correctness analysis (src/analyze/; updated only in validated runs
  //    and DFTH_RACE builds, but always present so layout is flag-independent)
  std::vector<const void*> held_locks;  ///< locks held (exclusive or read
                                        ///< mode), in acquire order
  std::vector<std::uint64_t> race_vc;   ///< happens-before vector clock,
                                        ///< index = fiber id (race_detector)
  std::int64_t audit_alloc_since_dispatch = 0;  ///< df_malloc bytes since last pick
  std::int64_t audit_quota = 0;  ///< quota granted at that dispatch
  std::uint64_t audit_dummy_credit = 0;  ///< δ dummies forked, not yet consumed
};

struct Tcb : TcbProgram, TcbKept, TcbFields {
  explicit Tcb(std::uint64_t id_in) { id = id_in; }

  Tcb(const Tcb&) = delete;
  Tcb& operator=(const Tcb&) = delete;
};

/// Intrusive FIFO of blocked threads (waiters on a mutex/condvar/semaphore).
class WaitList {
 public:
  bool empty() const { return head_ == nullptr; }

  void push(Tcb* t) {
    t->wait_next = nullptr;
    if (tail_) {
      tail_->wait_next = t;
    } else {
      head_ = t;
    }
    tail_ = t;
  }

  /// Queues t ahead of every other waiter (a Mutex waiter that lost its
  /// retry once, runtime/sync.h).
  void push_front(Tcb* t) {
    t->wait_next = head_;
    head_ = t;
    if (!tail_) tail_ = t;
  }

  Tcb* pop() {
    Tcb* t = head_;
    if (t) {
      head_ = t->wait_next;
      if (!head_) tail_ = nullptr;
      t->wait_next = nullptr;
    }
    return t;
  }

  /// Removes an arbitrary waiter (condvar wait cancellation); returns whether
  /// the thread was present.
  bool remove(Tcb* t);

 private:
  Tcb* head_ = nullptr;
  Tcb* tail_ = nullptr;
};

}  // namespace dfth
