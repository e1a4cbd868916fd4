// Record/replay hook macros, compiled to ((void)0) when -DDFTH_REPLAY is
// OFF (tests/replay static_assert the OFF expansion). They stay macros, and
// outside the observer edges of obs/edges.h: replay decides the order of
// the events it logs rather than observing it.
//
// Placement contract (see replay/session.h for the protocol):
//  * DFTH_REPLAY_GATE / _GATE_SELF run while the caller holds no
//    instrumented lock (nested sync sections excepted — proven safe there).
//  * DFTH_REPLAY_COMMIT / _SYNC_COMMIT / _FAULT_COMMIT run inside the
//    critical section that serializes the decision being logged.
//  * A section deciding several things at once (the real engine's merged
//    scheduling transitions) gates once and stages its records in a
//    replay::SectionLog, committed as one batch inside the section.
//  * DFTH_REPLAY_STEAL is an annotation: recorded inside the scheduler's
//    pick (itself inside the dispatching lane's section), verified on replay
//    by ReplayScheduler — never gated on.
#pragma once

#if DFTH_REPLAY

#include "replay/session.h"

#define DFTH_REPLAY_BIND_LANE(lane) ::dfth::replay::bind_lane(lane)

#define DFTH_REPLAY_GATE(actor)                              \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active()) dfth_rs_->gate(actor); \
  } while (0)

#define DFTH_REPLAY_GATE_SELF()                              \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->gate(::dfth::replay::self_actor());          \
  } while (0)

#define DFTH_REPLAY_COMMIT(kind, actor, a, b)                \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->commit((kind), (actor), (a), (b));           \
  } while (0)

#define DFTH_REPLAY_SYNC_GATE() DFTH_REPLAY_GATE_SELF()

#define DFTH_REPLAY_SYNC_COMMIT(obj, op)                     \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->commit_sync(::dfth::replay::self_actor(), (obj), (op)); \
  } while (0)

#define DFTH_REPLAY_SYNC_DESTROY(obj)                        \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->forget_sync(obj);                            \
  } while (0)

#define DFTH_REPLAY_FAULT_GATE() DFTH_REPLAY_GATE_SELF()

#define DFTH_REPLAY_FAULT_COMMIT(site, injected)             \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->commit(::dfth::replay::EvKind::Fault,        \
                       ::dfth::replay::self_actor(),         \
                       static_cast<std::uint64_t>(site),     \
                       (injected) ? 1u : 0u);                \
  } while (0)

#define DFTH_REPLAY_STEAL(lane, tid, victim)                 \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->annotate_steal((lane), (tid), (victim));     \
  } while (0)

#define DFTH_REPLAY_CANCEL_FIRE(lane, tid)                   \
  do {                                                       \
    if (auto* dfth_rs_ = ::dfth::replay::active())           \
      dfth_rs_->annotate_cancel_fire((lane), (tid));         \
  } while (0)

#else  // !DFTH_REPLAY

#include <cstdint>

#include "replay/log.h"

namespace dfth::replay {
// Engine-section batch (see session.h): nothing to record or verify.
struct SectionLog {
  void add(EvKind, std::uint64_t, std::uint64_t, std::uint64_t) {}
  void commit() {}
};

// Function-shaped hooks (serve/server.cpp threads observed values through
// its control flow, which a statement macro cannot express): OFF-mode
// passthroughs matching the session.h declarations.
inline std::uint64_t self_actor() { return 0; }
inline bool pinned() { return false; }
inline bool pinned_active() { return false; }
inline std::uint64_t observe_u64(std::uint64_t /*site*/, std::uint64_t live) {
  return live;
}
}  // namespace dfth::replay

#define DFTH_REPLAY_BIND_LANE(lane) ((void)0)
#define DFTH_REPLAY_GATE(actor) ((void)0)
#define DFTH_REPLAY_GATE_SELF() ((void)0)
#define DFTH_REPLAY_COMMIT(kind, actor, a, b) ((void)0)
#define DFTH_REPLAY_SYNC_GATE() ((void)0)
#define DFTH_REPLAY_SYNC_COMMIT(obj, op) ((void)0)
#define DFTH_REPLAY_SYNC_DESTROY(obj) ((void)0)
#define DFTH_REPLAY_FAULT_GATE() ((void)0)
#define DFTH_REPLAY_FAULT_COMMIT(site, injected) ((void)0)
#define DFTH_REPLAY_STEAL(lane, tid, victim) ((void)0)
#define DFTH_REPLAY_CANCEL_FIRE(lane, tid) ((void)0)

#endif  // DFTH_REPLAY
