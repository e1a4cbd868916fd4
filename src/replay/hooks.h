// Record/replay hook macros. With no session installed each gate, commit
// or annotation is one load of replay::active() and a branch. They stay
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
