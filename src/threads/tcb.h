// Thread control block: one per user-level thread, shared by every engine
// and scheduler. Intrusive links keep scheduler and wait-queue operations
// allocation-free.
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

struct Tcb {
  explicit Tcb(std::uint64_t id_in) : id(id_in) {}

  Tcb(const Tcb&) = delete;
  Tcb& operator=(const Tcb&) = delete;

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

  // -- execution state -------------------------------------------------------
  std::atomic<ThreadState> state{ThreadState::Embryo};
  Context ctx;
  Stack stack;

  // -- join/exit protocol (guarded by join_lock in the real engine) ----------
  SpinLock join_lock;
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
  Tcb* sched_next = nullptr;  ///< intrusive link for FIFO/LIFO/deque storage
                              ///< and AsyncDF's ready list
  Tcb* created_next = nullptr;  ///< RealEngine's per-lane list of created Tcbs
  /// RealEngine's posted readies (one-domain policies): the next older entry
  /// of the lane's posted list, what the entry asks for, and whether it is
  /// still waiting for a section to apply it. A Tcb sits on at most one list.
  Tcb* post_link = nullptr;
  std::uint8_t post_kind = 0;
  std::atomic<bool> posted{false};

  // -- wait queues ------------------------------------------------------------
  Tcb* wait_next = nullptr;  ///< intrusive link while blocked on a sync object
  bool timed_out = false;    ///< set by the engine timer when a timed wait
                             ///< expired before a waker claimed this thread;
                             ///< read (and reset) by the sync primitive after
                             ///< block_current_timed returns

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
  std::uint64_t audit_dummy_credit = 0;  ///< δ dummies forked, not yet consumed
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
