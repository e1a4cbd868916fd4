// Binary schedule-log format for deterministic record/replay.
//
// A RealEngine run is nondeterministic in exactly the places its shared
// state is serialized: which lane wins the scheduler lock for the next
// dispatch, which fiber's sync operation lands first on a primitive's
// guard, whether a timed wait was claimed by its timer or by a waker, and
// what the fault injector's per-site stream answered. The recorder logs one
// fixed-size record per such decision, stamped with a process-global
// logical clock (`seq`, a single atomic counter fetched while the relevant
// lock is held), so the merged seq order is a valid linearization of every
// recorded run: per-lock order equals section order, and per-actor order
// equals program order.
//
// On disk a log is a fixed header, then one block per writer lane (kernel
// worker, plus a shared "external" lane for the host, the supervisor and
// bound threads) of seq-ascending records, so writers never contend on one
// stream; the loader merges blocks by the seq key. The header embeds enough
// of RuntimeOptions (engine, sched, nprocs, seeds, quota, fault plan) to
// re-create the recorded run, and a checksum so truncation or corruption is
// a diagnosed error, never UB.
//
// This file is stdio-free; the log *writer* (log.cpp) is the replay layer's
// one designated file-I/O sink, mirroring obs/export.cpp and
// resil/watchdog.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dfth::replay {

#if DFTH_REPLAY
inline constexpr bool kReplayEnabled = true;
#else
inline constexpr bool kReplayEnabled = false;
#endif

/// Ordered decision kinds (consumed strictly in seq order on replay) plus
/// annotation kinds (per-actor verification streams, never gated on).
enum class EvKind : std::uint16_t {
  TidAlloc = 0,   ///< actor allocated thread id `a` (linearizes next_tid_)
  SpawnReg,       ///< actor registered child `a` with the scheduler; b = flags
  Dispatch,       ///< lane actor dispatched fiber `a`; b = kDispatch* flags
  Requeue,        ///< lane actor re-enqueued preempted/yielded fiber `a`
  Wake,           ///< actor made blocked fiber `a` runnable (Real: a lane
                  ///< actor when the waker is an exiting fiber)
  ExitSched,      ///< exiting fiber `a` left the scheduler (Real: the lane
                  ///< that retired it is the actor; Sim: the fiber itself)
  ExitJoin,       ///< exiting fiber published `finished` under its join lock
  Join,           ///< actor joined child `a`; b = 1 when the joiner blocked
  Sync,           ///< actor's sync-primitive op: a = object id, b = op code
  TimeoutClaim,   ///< timer claimed sleeper `a` off its wait list
  TimeoutReady,   ///< timer re-enqueued timed-out fiber `a` with the scheduler
  Fault,          ///< actor probed fault site `a`; b = 1 when injected
  Steal,          ///< annotation: lane actor stole fiber `a` from victim `b`
  QuotaShrink,    ///< actor halved eff_quota_ to `a` on OOM (attempt `b`)
  CancelFire,     ///< annotation: lane actor expired fiber `a`'s deadline at
                  ///< dispatch (the decision itself is pinned by the Dispatch
                  ///< record's kDispatchDeadline flag, not by this record)
  CancelCheck,    ///< actor polled cancel_requested(); a = observed value
  Observe,        ///< actor pinned a raced read (replay::observe_u64):
                  ///< a = observed value, b = site id (kObs*)
  kCount,
};

const char* to_string(EvKind kind);

/// Sync-section op codes (Record.b of EvKind::Sync). One code per
/// guard_-serialized section in runtime/sync.cpp.
enum class SyncOp : std::uint64_t {
  MutexLock = 1,
  MutexTryLockFor,
  MutexTryLock,
  MutexUnlock,
  CvWait,
  CvTimedWait,
  CvSignal,
  CvBroadcast,
  SemAcquire,
  SemTryAcquire,
  SemTryAcquireFor,
  SemRelease,
  BarrierArrive,
  RwRdLock,
  RwTryRdLock,
  RwRdUnlock,
  RwWrLock,
  RwTryWrLock,
  RwWrUnlock,
  OnceCall,
};

// -- actor encoding ------------------------------------------------------------
//
// Fibers are identified by their (replay-linearized) thread id. Execution
// lanes, the host thread and the timer supervisor make decisions of their
// own and get reserved encodings well above any plausible tid.

inline constexpr std::uint64_t kActorHost = ~std::uint64_t{0};
inline constexpr std::uint64_t kActorTimer = ~std::uint64_t{1};
inline constexpr std::uint64_t kLaneActorBit = std::uint64_t{1} << 63;

inline std::uint64_t lane_actor(int lane) {
  return kLaneActorBit | static_cast<std::uint64_t>(lane);
}

/// SpawnReg `b` flags.
inline constexpr std::uint64_t kSpawnPreempt = 1;  ///< fork dive: child runs now
inline constexpr std::uint64_t kSpawnBound = 2;    ///< child got a kernel thread
inline constexpr std::uint64_t kSpawnInline = 4;   ///< child ran on the parent's stack
/// An inline child's cancel token fired at its dispatch (the grant's bit,
/// which a Dispatch record carries for every other thread).
inline constexpr std::uint64_t kSpawnDeadline = 8;
/// Real-engine SpawnReg `b` bits from here up: the live-thread count the
/// spawn observed. The real engine counts live threads in one atomic shared
/// by every lock domain, and the log does not pin that atomic's increment
/// order; a pinned replay takes the recorded count, so max_live_threads
/// replays exactly. (The simulator's count is deterministic; it logs 0.)
inline constexpr int kSpawnLiveShift = 8;

/// Dispatch `b` flags. The deadline bit rides on the Dispatch record (one
/// ordered decision, committed in one critical section) instead of being a
/// separate ordered record: a sibling actor's sync commit could take the seq
/// between two back-to-back commits, and the replaying lane — which may not
/// gate while holding the scheduler lock — would stall on it forever.
inline constexpr std::uint64_t kDispatchForkDive = 1;  ///< parent preempted
inline constexpr std::uint64_t kDispatchDeadline = 2;  ///< cancel token fired here

/// Observe `b` site ids: which raced read a replay::observe_u64 call pinned.
/// Sites make divergence diagnostics readable and let replay verify that the
/// run is replaying the *same* read, not merely one with an equal value.
inline constexpr std::uint64_t kObsClockNs = 1;     ///< dfth::now_ns() (Real)
inline constexpr std::uint64_t kObsServeBase = 16;  ///< serve/server.cpp sites

/// One recorded decision. 40 bytes, written verbatim (the format is
/// host-endian; logs are artifacts of one machine's run, not an interchange
/// format, and the checksum rejects a foreign-endian file).
struct Record {
  std::uint64_t seq = 0;    ///< logical clock: global merge key
  std::uint64_t actor = 0;  ///< deciding fiber tid / lane / host / timer
  std::uint16_t kind = 0;   ///< EvKind
  std::uint16_t flags = 0;  ///< kFlagAnnotation
  std::uint32_t lane = 0;   ///< writer lane (diagnostics only)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(Record) == 40, "log records are fixed 40-byte cells");

inline constexpr std::uint16_t kFlagAnnotation = 1;

/// Wire copy of resil::SiteSpec (resil/faults.h), kept independent so the
/// log format cannot drift when the in-memory struct grows.
struct SiteSpecWire {
  std::uint64_t every_nth = 0;
  double probability = 0.0;
  std::uint64_t skip_first = 0;
  std::uint64_t max_failures = 0;
};

inline constexpr char kLogMagic[8] = {'D', 'F', 'T', 'H', 'L', 'O', 'G', '1'};
/// 3: the real engine retires an exiting fiber (ExitSched, its joiner's
/// Wake) in the lane's next scheduling section, committed as one batch.
/// 4: SpawnReg `b` carries the observed live-thread count (kSpawnLiveShift).
/// 5: the timer, not the waiter, commits a bound thread's TimeoutClaim.
inline constexpr std::uint32_t kLogVersion = 5;
inline constexpr int kMaxFaultSitesWire = 8;

struct LogHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t engine = 0;        ///< EngineKind of the recorded run
  std::uint32_t sched = 0;         ///< SchedKind
  std::uint32_t nprocs = 0;
  std::uint32_t cluster_size = 0;
  std::uint32_t lanes = 0;         ///< writer-lane blocks that follow
  std::uint64_t seed = 0;          ///< RuntimeOptions::seed (steal RNG etc.)
  std::uint64_t mem_quota = 0;
  std::uint64_t default_stack_size = 0;
  char tag[64] = {};               ///< RuntimeOptions::record_tag (app name)
  std::uint8_t has_fault_plan = 0;
  std::uint8_t clean_end = 0;      ///< 0 = abort-time flush (partial log)
  std::uint8_t pad[6] = {};
  std::uint64_t fault_seed = 0;
  SiteSpecWire fault_sites[kMaxFaultSitesWire] = {};
  std::uint64_t event_count = 0;   ///< records across all lane blocks
  std::uint64_t checksum = 0;      ///< FNV-1a over every record, block order
};

struct LaneBlockHeader {
  std::uint32_t lane = 0;
  std::uint32_t pad = 0;
  std::uint64_t count = 0;
};

/// FNV-1a over a record's bytes, continuing `h` (seed with kChecksumSeed).
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ull;
std::uint64_t checksum_record(std::uint64_t h, const Record& r);

/// A parsed log: the header, the ordered decisions merged across lanes by
/// seq, and the annotation records (Steal) in seq order.
struct LoadedLog {
  LogHeader header;
  std::vector<Record> ordered;
  std::vector<Record> annotations;
};

/// Writes header + per-lane blocks; fills in lanes/event_count/checksum.
/// Returns false with a one-line diagnostic in *error on any I/O failure.
bool save_log(const std::string& path, LogHeader header,
              const std::vector<std::vector<Record>>& lane_records,
              std::string* error);

/// Reads and validates `path`. Every malformation — short file, bad magic,
/// unknown version, truncated lane block, record-count or checksum mismatch
/// — is a false return with a specific diagnostic in *error, never UB.
bool load_log(const std::string& path, LoadedLog* out, std::string* error);

}  // namespace dfth::replay
