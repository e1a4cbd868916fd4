// Hook macros the runtime uses to feed the happens-before race detector
// (analyze/race_detector.h). They compile to nothing unless the build sets
// -DDFTH_RACE=ON, so release builds pay zero overhead: the detector's
// shadow memory is a structural cost, unlike the lock graph's run-time
// switch (analyze/validation.h).
//
// Placement contract (matters only under the RealEngine, where fibers run
// on concurrent kernel threads): release-side hooks and fast-path
// acquire-side hooks run while the sync object's guard_ spinlock is held,
// so a releaser's clock is always recorded before the next acquirer reads
// it. Blocked acquirers run their hook after Engine::block_current returns,
// which is already ordered after the releaser's hook by the wake protocol.
// Lock order: object guard_ → detector mu_; the detector never takes guards.
#pragma once

#if DFTH_RACE

#include "analyze/race_detector.h"

#define DFTH_RACE_FORK(child, parent)                                       \
  do {                                                                      \
    if ((child))                                                            \
      ::dfth::analyze::RaceDetector::instance().on_thread_start((child),    \
                                                               (parent));   \
  } while (0)
#define DFTH_RACE_JOIN(joiner, child)                                       \
  do {                                                                      \
    if ((joiner) && (child))                                                \
      ::dfth::analyze::RaceDetector::instance().on_join((joiner), (child)); \
  } while (0)
#define DFTH_RACE_ACQUIRE(t, o) \
  ::dfth::analyze::RaceDetector::instance().on_acquire((t), (o))
#define DFTH_RACE_RELEASE(t, o) \
  ::dfth::analyze::RaceDetector::instance().on_release((t), (o))
#define DFTH_RACE_RD_ACQUIRE(t, o) \
  ::dfth::analyze::RaceDetector::instance().on_rd_acquire((t), (o))
#define DFTH_RACE_RD_RELEASE(t, o) \
  ::dfth::analyze::RaceDetector::instance().on_rd_release((t), (o))
#define DFTH_RACE_WR_ACQUIRE(t, o) \
  ::dfth::analyze::RaceDetector::instance().on_wr_acquire((t), (o))
#define DFTH_RACE_BARRIER_ARRIVE(t, o, gen, last)                         \
  ::dfth::analyze::RaceDetector::instance().on_barrier_arrive((t), (o),   \
                                                              (gen), (last))
#define DFTH_RACE_BARRIER_LEAVE(t, o, gen) \
  ::dfth::analyze::RaceDetector::instance().on_barrier_leave((t), (o), (gen))
#define DFTH_RACE_BEGIN_RUN() \
  ::dfth::analyze::RaceDetector::instance().begin_run()

#else

#define DFTH_RACE_FORK(child, parent) ((void)0)
#define DFTH_RACE_JOIN(joiner, child) ((void)0)
#define DFTH_RACE_ACQUIRE(t, o) ((void)0)
#define DFTH_RACE_RELEASE(t, o) ((void)0)
#define DFTH_RACE_RD_ACQUIRE(t, o) ((void)0)
#define DFTH_RACE_RD_RELEASE(t, o) ((void)0)
#define DFTH_RACE_WR_ACQUIRE(t, o) ((void)0)
#define DFTH_RACE_BARRIER_ARRIVE(t, o, gen, last) ((void)0)
#define DFTH_RACE_BARRIER_LEAVE(t, o, gen) ((void)0)
#define DFTH_RACE_BEGIN_RUN() ((void)0)

#endif  // DFTH_RACE
