// Happens-before data-race detection over the logical fork/join DAG — the
// FastTrack algorithm (epochs + vector clocks) applied to *fibers* instead
// of kernel threads.
//
// Why TSan cannot do this job: the paper's programs express parallelism as
// thousands of short-lived logical threads, but under the deterministic
// SimEngine every fiber runs on one host thread, so accesses that are
// *virtually* concurrent (no path between them in the fork/join DAG) are
// completely serialized at the hardware level — TSan sees one well-ordered
// instruction stream and stays silent. This is the same blind spot the
// LockGraph header documents for deadlocks, and the fix is the same: reason
// about the program's own synchronization structure, not the host's. Each
// fiber carries a vector clock (Tcb::race_vc) advanced by the runtime's own
// edges — fork (parent→child), join (exit→joiner), and every primitive in
// runtime/sync.cpp (Mutex/RwLock release→acquire, CondVar signal→wakeup,
// Semaphore V→P, Barrier generation as an all-to-all edge, Once) — so two
// annotated accesses race exactly when neither happens-before the other in
// the DAG, *on any schedule*, from a single deterministic run. That is what
// makes the analysis schedule-insensitive: FIFO, LIFO, AsyncDF and
// work stealing all report the same race set for the same program.
//
// The epoch optimization (FastTrack, PLDI'09): a full vector-clock per
// shadow cell would cost O(live fibers) per access — untenable when the
// paper's point is programs with 10^5 threads. Most accesses are totally
// ordered, so each cell stores the last write as a single (fiber, clock)
// *epoch* and the read history as one epoch too, escalating to a read
// vector only while reads are genuinely concurrent (and collapsing back on
// the next ordered write). Accesses are explicit annotations — df_read /
// df_write in runtime/api.h, in the same family as annotate_touch — over
// df_malloc'd memory, shadowed per 8-byte granule (space/tracked_heap.h).
//
// Reports speak the paper's vocabulary: both access sites, the fiber ids,
// and the serial-order (order-list) positions of the racing segments, so
// "these two segments are unordered in the depth-first serial order" reads
// directly off the report. Hooks compile in under -DDFTH_RACE=ON
// (composable with validation); the class itself is always built and
// instantiable so unit tests can drive it directly, mirroring LockGraph.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "space/tracked_heap.h"
#include "util/spinlock.h"

namespace dfth {

struct Tcb;

namespace analyze {

/// True when the build carries the race-detector hooks (-DDFTH_RACE=ON).
constexpr bool race_enabled() {
#if DFTH_RACE
  return true;
#else
  return false;
#endif
}

/// One side of a reported race.
struct RaceAccess {
  std::uint64_t fiber = 0;      ///< logical thread id
  std::uint64_t clock = 0;      ///< that fiber's clock at the access
  bool is_write = false;
  const char* site = nullptr;   ///< df_read/df_write annotation label
  std::uint64_t order_tag = 0;  ///< serial-order (order-list) position, 0 if
                                ///< the scheduler keeps no order list
};

struct RaceReport {
  const void* addr = nullptr;  ///< first racing granule (8-byte aligned)
  RaceAccess prev;             ///< the access remembered in the shadow cell
  RaceAccess cur;              ///< the access that exposed the race
};

class RaceDetector {
 public:
  /// Standalone instance with a private shadow table (unit tests).
  RaceDetector();
  /// Instance sharing an external shadow table; the process-wide singleton
  /// binds to TrackedHeap's so df_free retires shadow automatically.
  explicit RaceDetector(ShadowTable* shadow);
  ~RaceDetector();
  RaceDetector(const RaceDetector&) = delete;
  RaceDetector& operator=(const RaceDetector&) = delete;

  /// Process-wide instance the runtime hooks report to.
  static RaceDetector& instance();

  // -- fork/join DAG edges ----------------------------------------------------
  /// Fork edge parent→child (parent == nullptr for the main thread): the
  /// child inherits everything the parent has seen; the parent's clock ticks
  /// so its post-fork segment is concurrent with the child.
  void on_thread_start(Tcb* t, Tcb* parent);
  /// Join edge exit→joiner: the joiner inherits everything the exited child
  /// (and transitively its whole subtree) has seen.
  void on_join(Tcb* joiner, Tcb* child);

  // -- synchronization edges (object keyed by address) ------------------------
  /// Release→acquire: Mutex unlock→lock, Semaphore V→P, CondVar
  /// signal→wakeup, Once run→observe, RwLock write release.
  void on_acquire(Tcb* t, const void* obj);
  void on_release(Tcb* t, const void* obj);
  /// RwLock read side: readers order after the last writer but not after
  /// each other; a later writer orders after all of them.
  void on_rd_acquire(Tcb* t, const void* obj);
  void on_rd_release(Tcb* t, const void* obj);
  void on_wr_acquire(Tcb* t, const void* obj);
  /// Barrier: generation `gen` is an all-to-all edge — every arrival joins
  /// the generation's clock (`last` set by the completing arrival), every
  /// departure inherits it.
  void on_barrier_arrive(Tcb* t, const void* barrier, std::uint64_t gen, bool last);
  void on_barrier_leave(Tcb* t, const void* barrier, std::uint64_t gen);

  // -- annotated memory accesses ----------------------------------------------
  void on_read(Tcb* t, const void* p, std::size_t bytes, const char* site);
  void on_write(Tcb* t, const void* p, std::size_t bytes, const char* site);

  // -- lifecycle / results -----------------------------------------------------
  /// Called at dfth::run() entry: drops all happens-before state (sync
  /// clocks, barrier generations, shadow cells) because fiber ids restart
  /// per run — but keeps accumulated reports so a suite-wide sweep can
  /// collect evidence across runs. `order_tags`: reports carry the fiber's
  /// order-list position — only when one kernel thread runs the whole run
  /// (the simulator); elsewhere other lanes relink and retag the list under
  /// their domain locks, which the detector does not take.
  void begin_run(bool order_tags);
  /// Drops everything, reports included (tests).
  void clear();

  void set_abort_on_race(bool abort_on_race);
  std::uint64_t races_detected() const;
  /// Times a cell's read history escalated from an epoch to a read vector
  /// (observability for the epoch optimization; tests assert the fast path
  /// stays an epoch under totally ordered reads).
  std::uint64_t read_escalations() const;
  std::vector<RaceReport> reports() const;

 private:
  using VClock = std::vector<std::uint64_t>;
  struct SyncClock {
    VClock rel;     ///< joined at exclusive release; acquires inherit it
    VClock rd_rel;  ///< joined at read release; only write acquires inherit
  };
  struct BarrierClock {
    VClock accum;        ///< arrivals of the in-progress generation
    VClock released[2];  ///< completed generations, by parity (≤2 in flight)
  };

  void access(Tcb* t, const void* p, std::size_t bytes, const char* site,
              bool is_write);
  /// Records + prints a race; returns after aborting unless configured not
  /// to. Caller holds mu_ and the shadow table's mutex.
  void report_race(const void* addr, const RaceAccess& prev, const RaceAccess& cur);

  /// Guards the sync and barrier clocks, the shadow cells and the reports;
  /// not the Tcb clocks (see the fork/join edges).
  mutable SpinLock mu_;
  ShadowTable* shadow_ = nullptr;
  std::unique_ptr<ShadowTable> owned_shadow_;  ///< set for the test ctor
  std::unordered_map<const void*, SyncClock> sync_;
  std::unordered_map<const void*, BarrierClock> barriers_;
  std::vector<RaceReport> reports_;
  /// Dedup key: (granule, prev site, cur site, prev-is-write, cur-is-write).
  std::set<std::tuple<std::uintptr_t, const char*, const char*, bool, bool>> seen_;
  std::uint64_t escalations_ = 0;
  bool abort_on_race_ = true;
  std::atomic<bool> order_tags_{true};  ///< set by begin_run
};

}  // namespace analyze
}  // namespace dfth
