// Portable ucontext(3) implementation of the fiber context interface.
// Slower than the assembly path (glibc swapcontext issues a sigprocmask
// system call per switch) but useful on non-x86-64 hosts and as a
// correctness oracle for the assembly version.
#ifdef DFTH_USE_UCONTEXT

#include <ucontext.h>

#include <cstdint>

#include "analyze/san_fibers.h"
#include "threads/context.h"
#include "util/check.h"

namespace dfth {

struct ContextImpl {
  ucontext_t uc;
};

namespace {

// makecontext only passes ints portably; split the pointer into two words.
void trampoline(unsigned hi_entry, unsigned lo_entry, unsigned hi_arg, unsigned lo_arg) {
  auto entry = reinterpret_cast<FiberEntry>(
      (static_cast<std::uintptr_t>(hi_entry) << 32) | lo_entry);
  void* arg = reinterpret_cast<void*>((static_cast<std::uintptr_t>(hi_arg) << 32) | lo_arg);
  entry(arg);
  DFTH_CHECK_MSG(false, "fiber entry returned");
}

ContextImpl* ensure_impl(Context* ctx) {
  if (!ctx->impl) ctx->impl = new ContextImpl();
  return ctx->impl;
}

}  // namespace

void context_make(Context* ctx, void* stack_lo, void* stack_hi, FiberEntry entry,
                  void* arg) {
  ContextImpl* impl = ensure_impl(ctx);
  DFTH_CHECK(getcontext(&impl->uc) == 0);
  impl->uc.uc_stack.ss_sp = stack_lo;
  impl->uc.uc_stack.ss_size =
      static_cast<std::size_t>(static_cast<char*>(stack_hi) - static_cast<char*>(stack_lo));
  impl->uc.uc_link = nullptr;
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  // Route the first activation through the sanitizer entry shim so ASan/TSan
  // see the switch completed before any user frame runs.
  san::fiber_made(ctx, stack_lo, stack_hi);
  ctx->san.entry = entry;
  ctx->san.entry_arg = arg;
  entry = &san::entry_shim;
  arg = ctx;
#endif
  const auto entry_bits = reinterpret_cast<std::uintptr_t>(entry);
  const auto arg_bits = reinterpret_cast<std::uintptr_t>(arg);
  makecontext(&impl->uc, reinterpret_cast<void (*)()>(trampoline), 4,
              static_cast<unsigned>(entry_bits >> 32),
              static_cast<unsigned>(entry_bits & 0xffffffffu),
              static_cast<unsigned>(arg_bits >> 32),
              static_cast<unsigned>(arg_bits & 0xffffffffu));
}

bool context_switch(Context* save, Context* restore) {
  ContextImpl* save_impl = ensure_impl(save);
  DFTH_CHECK(restore->impl != nullptr);
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::pre_switch(save, restore);
  DFTH_CHECK(swapcontext(&save_impl->uc, &restore->impl->uc) == 0);
  san::post_switch(save);
#else
  DFTH_CHECK(swapcontext(&save_impl->uc, &restore->impl->uc) == 0);
#endif
  return true;
}

void context_switch_final(Context* dying, Context* restore) {
  ContextImpl* dying_impl = ensure_impl(dying);
  DFTH_CHECK(restore->impl != nullptr);
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::pre_final_switch(restore);
#endif
  DFTH_CHECK(swapcontext(&dying_impl->uc, &restore->impl->uc) == 0);
  DFTH_CHECK_MSG(false, "finalized fiber context resumed");
}

void context_finalize(Context* ctx) {
#if defined(DFTH_ASAN_ENABLED) || defined(DFTH_TSAN_ENABLED)
  san::fiber_released(ctx);
#else
  (void)ctx;
#endif
}

void context_destroy(Context* ctx) {
  context_finalize(ctx);
  delete ctx->impl;
  ctx->impl = nullptr;
}

}  // namespace dfth

#endif  // DFTH_USE_UCONTEXT
