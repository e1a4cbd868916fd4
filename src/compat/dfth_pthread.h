// Source-level Pthreads compatibility layer.
//
// The paper's selling point is that its scheduler slots under the
// *standard* Pthreads API: "any existing Pthreads programs can be executed
// using our space-efficient scheduler." This header delivers that for this
// library: a program written against the pthread_* call shapes can switch
// to DFThreads by replacing `#include <pthread.h>` with this header and
// prefixing the calls with dfth_ (or `#define DFTH_PTHREAD_ALIASES 1` first
// to get the unprefixed names via macros). It is source-compatible, not
// ABI-compatible — everything must run inside dfth::run().
//
// Covered: threads (create/join/detach/self/equal/yield), mutexes, condition
// variables, rwlocks, semaphores, barriers, once, and thread-specific data.
// Attributes support the subset the paper exercises: stack size, detach
// state, and bound ("system scope") threads.
#pragma once

#include <cstdint>
#include <new>
#include <source_location>

#include "runtime/api.h"
#include "runtime/sync.h"

// -- types --------------------------------------------------------------------

/// Valid until joined or detached, as a pthread_t: the thread's control
/// block is then recycled once it has exited, and a join or detach through
/// the stale handle aborts.
struct dfth_pthread_t {
  dfth::Thread handle;
};
struct dfth_pthread_attr_t {
  dfth::Attr attr;
};
using dfth_pthread_mutex_t = dfth::Mutex;
using dfth_pthread_cond_t = dfth::CondVar;
using dfth_pthread_rwlock_t = dfth::RwLock;
using dfth_sem_t = dfth::Semaphore;
using dfth_pthread_barrier_t = dfth::Barrier*;  // init carries the count
using dfth_pthread_once_t = dfth::Once;
using dfth_pthread_key_t = std::uint32_t;

inline constexpr int DFTH_PTHREAD_SCOPE_PROCESS = 0;  // unbound (library)
inline constexpr int DFTH_PTHREAD_SCOPE_SYSTEM = 1;   // bound ("LWP")
inline constexpr int DFTH_PTHREAD_CREATE_JOINABLE = 0;
inline constexpr int DFTH_PTHREAD_CREATE_DETACHED = 1;

// -- attributes ------------------------------------------------------------------

inline int dfth_pthread_attr_init(dfth_pthread_attr_t* a) {
  a->attr = dfth::Attr{};
  return 0;
}
inline int dfth_pthread_attr_destroy(dfth_pthread_attr_t*) { return 0; }
inline int dfth_pthread_attr_setstacksize(dfth_pthread_attr_t* a, std::size_t s) {
  a->attr.stack_size = s;
  return 0;
}
inline int dfth_pthread_attr_setdetachstate(dfth_pthread_attr_t* a, int state) {
  a->attr.detached = (state == DFTH_PTHREAD_CREATE_DETACHED);
  return 0;
}
inline int dfth_pthread_attr_setscope(dfth_pthread_attr_t* a, int scope) {
  a->attr.bound = (scope == DFTH_PTHREAD_SCOPE_SYSTEM);
  return 0;
}
inline int dfth_pthread_attr_setschedparam_priority(dfth_pthread_attr_t* a,
                                                    int priority) {
  a->attr.priority = priority;
  return 0;
}

// -- threads -----------------------------------------------------------------------

// The defaulted source_location forwards the *application's* call site into
// dfth::spawn, so the work/span profiler attributes threads to the app's
// pthread_create line rather than to this shim.
inline int dfth_pthread_create(
    dfth_pthread_t* t, const dfth_pthread_attr_t* a, void* (*fn)(void*),
    void* arg,
    std::source_location site = std::source_location::current()) {
  const dfth::Attr attr = a ? a->attr : dfth::Attr{};
  t->handle = dfth::spawn([fn, arg]() -> void* { return fn(arg); }, attr, site);
  return 0;
}
inline int dfth_pthread_join(dfth_pthread_t t, void** result) {
  void* r = dfth::join(t.handle);
  if (result) *result = r;
  return 0;
}
inline int dfth_pthread_detach(dfth_pthread_t t) {
  dfth::detach(t.handle);
  return 0;
}
inline std::uint64_t dfth_pthread_self() { return dfth::self_id(); }
inline int dfth_pthread_equal(std::uint64_t a, std::uint64_t b) { return a == b; }
inline int dfth_sched_yield() {
  dfth::yield();
  return 0;
}

// -- mutexes ----------------------------------------------------------------------

inline int dfth_pthread_mutex_init(dfth_pthread_mutex_t*, const void* = nullptr) {
  return 0;  // Mutex is valid on construction
}
inline int dfth_pthread_mutex_destroy(dfth_pthread_mutex_t*) { return 0; }
inline int dfth_pthread_mutex_lock(dfth_pthread_mutex_t* m) {
  m->lock();
  return 0;
}
inline int dfth_pthread_mutex_trylock(dfth_pthread_mutex_t* m) {
  return m->try_lock() ? 0 : 16 /*EBUSY*/;
}
inline int dfth_pthread_mutex_unlock(dfth_pthread_mutex_t* m) {
  m->unlock();
  return 0;
}

// -- condition variables --------------------------------------------------------------

inline int dfth_pthread_cond_init(dfth_pthread_cond_t*, const void* = nullptr) {
  return 0;
}
inline int dfth_pthread_cond_destroy(dfth_pthread_cond_t*) { return 0; }
inline int dfth_pthread_cond_wait(dfth_pthread_cond_t* c, dfth_pthread_mutex_t* m) {
  c->wait(*m);
  return 0;
}
inline int dfth_pthread_cond_signal(dfth_pthread_cond_t* c) {
  c->signal();
  return 0;
}
inline int dfth_pthread_cond_broadcast(dfth_pthread_cond_t* c) {
  c->broadcast();
  return 0;
}

// -- rwlocks ----------------------------------------------------------------------

inline int dfth_pthread_rwlock_init(dfth_pthread_rwlock_t*, const void* = nullptr) {
  return 0;
}
inline int dfth_pthread_rwlock_destroy(dfth_pthread_rwlock_t*) { return 0; }
inline int dfth_pthread_rwlock_rdlock(dfth_pthread_rwlock_t* l) {
  l->rdlock();
  return 0;
}
inline int dfth_pthread_rwlock_tryrdlock(dfth_pthread_rwlock_t* l) {
  return l->try_rdlock() ? 0 : 16;
}
inline int dfth_pthread_rwlock_wrlock(dfth_pthread_rwlock_t* l) {
  l->wrlock();
  return 0;
}
inline int dfth_pthread_rwlock_trywrlock(dfth_pthread_rwlock_t* l) {
  return l->try_wrlock() ? 0 : 16;
}
inline int dfth_pthread_rwlock_unlock_rd(dfth_pthread_rwlock_t* l) {
  l->rdunlock();
  return 0;
}
inline int dfth_pthread_rwlock_unlock_wr(dfth_pthread_rwlock_t* l) {
  l->wrunlock();
  return 0;
}

// -- semaphores (sem_t) ---------------------------------------------------------------

inline int dfth_sem_init(dfth_sem_t* s, int, unsigned value) {
  // sem_t semantics: (re)initialize in place; the object must not be in use.
  s->~dfth_sem_t();
  new (s) dfth_sem_t(static_cast<int>(value));
  return 0;
}
inline int dfth_sem_destroy(dfth_sem_t*) { return 0; }
inline int dfth_sem_wait(dfth_sem_t* s) {
  s->acquire();
  return 0;
}
inline int dfth_sem_trywait(dfth_sem_t* s) { return s->try_acquire() ? 0 : 11; }
inline int dfth_sem_post(dfth_sem_t* s) {
  s->release();
  return 0;
}

// -- barriers ----------------------------------------------------------------------

inline int dfth_pthread_barrier_init(dfth_pthread_barrier_t* b, const void*,
                                     unsigned count) {
  *b = new dfth::Barrier(static_cast<int>(count));
  return 0;
}
inline int dfth_pthread_barrier_destroy(dfth_pthread_barrier_t* b) {
  delete *b;
  *b = nullptr;
  return 0;
}
inline int dfth_pthread_barrier_wait(dfth_pthread_barrier_t* b) {
  (*b)->arrive_and_wait();
  return 0;
}

// -- once & thread-specific data ------------------------------------------------------

inline int dfth_pthread_once(dfth_pthread_once_t* once, void (*fn)()) {
  once->call(fn);
  return 0;
}
inline int dfth_pthread_key_create(dfth_pthread_key_t* key, void (*)(void*) = nullptr) {
  *key = dfth::tls_create_key();
  return 0;
}
inline int dfth_pthread_setspecific(dfth_pthread_key_t key, const void* value) {
  dfth::tls_set(key, const_cast<void*>(value));
  return 0;
}
inline void* dfth_pthread_getspecific(dfth_pthread_key_t key) {
  return dfth::tls_get(key);
}

// -- optional unprefixed aliases --------------------------------------------------------

#ifdef DFTH_PTHREAD_ALIASES
#define pthread_t dfth_pthread_t
#define pthread_attr_t dfth_pthread_attr_t
#define pthread_mutex_t dfth_pthread_mutex_t
#define pthread_cond_t dfth_pthread_cond_t
#define pthread_create dfth_pthread_create
#define pthread_join dfth_pthread_join
#define pthread_detach dfth_pthread_detach
#define pthread_self dfth_pthread_self
#define pthread_mutex_init dfth_pthread_mutex_init
#define pthread_mutex_lock dfth_pthread_mutex_lock
#define pthread_mutex_trylock dfth_pthread_mutex_trylock
#define pthread_mutex_unlock dfth_pthread_mutex_unlock
#define pthread_mutex_destroy dfth_pthread_mutex_destroy
#define pthread_cond_init dfth_pthread_cond_init
#define pthread_cond_wait dfth_pthread_cond_wait
#define pthread_cond_signal dfth_pthread_cond_signal
#define pthread_cond_broadcast dfth_pthread_cond_broadcast
#define pthread_cond_destroy dfth_pthread_cond_destroy
#define sched_yield dfth_sched_yield
#endif  // DFTH_PTHREAD_ALIASES
