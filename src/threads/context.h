// Fiber context switching — the mechanism that makes user-level threads
// cheap (the paper's Figure 3 contrasts ~20 µs user-level thread creation
// with kernel-thread costs an order of magnitude higher).
//
// Two implementations, selected at build time:
//  * x86-64 System V assembly (default): saves/restores only the callee-saved
//    registers plus the FP control words; a switch is ~20 instructions and
//    never enters the kernel.
//  * ucontext(3) (-DDFTH_USE_UCONTEXT=1): portable but slow, since glibc's
//    swapcontext makes a sigprocmask system call per switch. This mirrors
//    the kernel-involvement cost gap the paper describes.
//
// A Context is opaque; for the assembly version it is just the fiber's saved
// stack pointer. Switching to a freshly made context enters `entry(arg)` on
// the given stack; `entry` must never return (fibers exit through the
// engine, which switches away for the last time).
#pragma once

#include <cstddef>

namespace dfth {

using FiberEntry = void (*)(void* arg);

// Sanitizer bookkeeping carried by every context (see analyze/san_fibers.h).
// In non-sanitizer builds the fields are never read or written after
// initialization, so they cost four pointers of storage and nothing else.
struct ContextSanState {
  const void* stack_bottom = nullptr;  ///< fiber stack low address (lo..lo+bytes)
  std::size_t stack_bytes = 0;
  void* asan_fake_stack = nullptr;     ///< ASan fake-stack handle across a switch
  void* tsan_fiber = nullptr;          ///< TSan fiber (owned iff tsan_fiber_owned)
  bool tsan_fiber_owned = false;
  FiberEntry entry = nullptr;          ///< original entry, when shimmed
  void* entry_arg = nullptr;
};

#ifndef DFTH_USE_UCONTEXT

struct Context {
  void* sp = nullptr;
  ContextSanState san;
};

#else

struct ContextImpl;  // wraps ucontext_t
struct Context {
  ContextImpl* impl = nullptr;
  ContextSanState san;
};

#endif

/// Prepares `ctx` so that switching to it calls entry(arg) on the stack
/// [stack_lo, stack_hi). The stack must stay alive until the fiber is done.
void context_make(Context* ctx, void* stack_lo, void* stack_hi, FiberEntry entry,
                  void* arg);

/// Saves the current execution state into *save and resumes *restore.
/// Returns true (into *save) when something later switches back to it, so
/// a caller that returns bool can tail-call it: the resumed fiber then
/// returns straight to that caller's caller.
bool context_switch(Context* save, Context* restore);

/// Last switch out of a fiber that will never resume (its entry is done).
/// Identical to context_switch except that sanitizer builds tear down the
/// dying fiber's ASan fake stack instead of preserving it. `dying` is still
/// written (the engine owns the Tcb until cleanup) but must not be resumed.
void context_switch_final(Context* dying, Context* restore);

/// Releases sanitizer state of an exited (or never-started) fiber context.
/// Must not be called on the context currently executing. Safe to call more
/// than once; a no-op outside sanitizer builds.
void context_finalize(Context* ctx);

/// Releases any heap state behind ctx (no-op for the assembly version).
void context_destroy(Context* ctx);

}  // namespace dfth
