// The process-wide validation switch. While it is on, every engine run is
// checked against the scheduler invariants and the lock discipline:
//  * make_scheduler wraps the policy in AuditedScheduler (auditor.h), whose
//    auditor re-checks leftmost-ready dispatch, the K quota and the
//    δ = ⌈m/K⌉ dummy threads on every scheduling step;
//  * the Mutex/RwLock hooks report every acquire and release to
//    LockGraph::instance() (lock_graph.h), which reports a lock-order
//    inversion as a potential deadlock.
// dfth::run reads the switch at entry, before it builds the engine, and
// the run keeps that answer until it returns, so a caller may flip it
// between runs. It is off by default: bench, tools and examples run
// unchecked. Every test binary links tests/validation_on.cpp, which turns
// it on before main.
#pragma once

#include <atomic>

namespace dfth::analyze {

namespace detail {
inline std::atomic<bool> g_validation{false};
}  // namespace detail

inline void set_validation(bool on) {
  detail::g_validation.store(on, std::memory_order_relaxed);
}

inline bool validation() {
  return detail::g_validation.load(std::memory_order_relaxed);
}

}  // namespace dfth::analyze
